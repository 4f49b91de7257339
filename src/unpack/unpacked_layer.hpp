// Layer-based code unpacking (§II-B): the paper's core kernel form.
//
// Each approximable layer (conv or depthwise) becomes straight-line
// "programs", one per output channel: a sequence of dual-MAC operations
// whose weights are hardwired constants (two sign-extended int8 weights
// packed into one 32-bit SMLAD operand, e.g. 64*2^16 + 20). Unpacking
// differs from loop unrolling in that the weight *values* are burned into
// the instruction stream — there are no weight loads, no im2col
// pre-expansion and no loop/branch overhead; the program is replayed once
// per output spatial position.
//
// Significance skipping composes naturally: building a program with a
// skip mask simply drops the skipped operands and *re-pairs* the
// survivors offline, so every skipped product removes real instructions
// (and flash bytes), not just work inside an unchanged loop.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/quant/qtypes.hpp"

namespace ataman {

struct LayerSignificance;

// One SMLAD step: two operand offsets + the packed weight constant. An
// operand offset indexes the q15 expansion of one output position's
// receptive field ((ky,kx,in_c) order), so every channel program reads
// the same expansion. On the host, the kernel's operand offset table
// maps it to kPosBlock contiguous positions of the planar input copy
// (PlanarLayout), read in place.
struct MacPairOp {
  uint32_t weight_const = 0;  // pack_weight_pair(w_b, w_a): a in low lane
  uint32_t operand_a = 0;     // offset into the position's expansion
  uint32_t operand_b = 0;
};

// Odd leftover: one SMLABB step.
struct MacSingleOp {
  int16_t weight = 0;
  uint32_t operand = 0;
};

struct ChannelProgram {
  int32_t bias = 0;
  // Baked per-channel requant constant (per-output-channel weight
  // quantization: each program rescales with its own multiplier, exactly
  // like its bias is its own constant).
  QuantizedMultiplier requant;
  std::vector<MacPairOp> pairs;
  bool has_single = false;
  MacSingleOp single;
  // Band ends, one per rung (UnpackedLayer::build_rungs): rung r's
  // accumulator is pairs[0, band_end[r]), plus the single for rung 0.
  // A one-rung program has band_end == {pairs.size()}.
  std::vector<uint32_t> band_end;

  int64_t retained_ops() const {
    return static_cast<int64_t>(pairs.size()) * 2 + (has_single ? 1 : 0);
  }
};

// The unpacked program of one conv or depthwise layer. The skip-mask
// operand order (channel * patch + operand) picks each channel's
// retained operands, and re-pairing keeps that order. Operand offsets:
//   * conv: operand i of a channel is patch index i (offset i);
//   * depthwise: `geom` is expansion_geom() (in_c = out_c = channels)
//     and tap t of channel ch is baked as offset t * channels + ch.
//
// A program computes one or more *rungs* of the layer: rung r is the
// layer under the r-th of a nested sequence of skip sets, rung 0 the
// smallest. Each channel's operands are split into bands: band r holds
// the operands rung r retains and rung r + 1 skips. The kernel
// accumulates the bands from the top rung down and stores a rung's
// output right after its band, so one pass yields every rung down to
// the lowest one stored. Bits match a one-rung program under each
// rung's mask: int32 accumulation wraps, so regrouping a channel's
// products leaves its accumulator unchanged.
struct UnpackedLayer {
  ConvGeom geom;
  QuantParams in_q, out_q;
  int32_t act_min = -128, act_max = 127;
  int rung_count = 1;
  std::vector<ChannelProgram> channels;

  // Static instruction counts (summed over channels; the cost and flash
  // models multiply by positions / bytes-per-op respectively).
  int64_t static_pairs() const;
  int64_t static_singles() const;
  int64_t retained_macs() const;  // dynamic: retained static ops x positions

  // Build from a QConv2D or QDepthwiseConv2D (any other kind throws);
  // `skip` is nullptr (exact unpacking) or the layer's SkipMask row.
  static UnpackedLayer build(const QLayer& layer,
                             const uint8_t* skip = nullptr);
  // The rung program: rung 0 is exact and rung r >= 1 skips the
  // operands skips() marks at rung_taus[r - 1], as make_skip_mask does,
  // so rung_taus must ascend. Each band's odd leftover is one SMLABB
  // step: rung 0's is the channel's single, a higher band's a pair with
  // a zero high weight.
  static UnpackedLayer build_rungs(const QLayer& layer,
                                   const LayerSignificance& sig,
                                   std::span<const double> rung_taus);

  // Execute on a contiguous batch of `batch` input feature maps (image b
  // at b * in_elems / b * out_elems). Bit-exact with the reference kernel
  // under the same skip mask (tests assert this). On the host each
  // channel program is streamed once per kBatchLanes blocks of kPosBlock
  // output columns (of any row or image): each hardwired weight
  // constant multiplies into all of the lanes' accumulators
  // (run_conv_blocks). `scratch` as for the packed kernels (Q15Scratch);
  // only the output columns in `range` are computed.
  void run(std::span<const int8_t> in, std::span<int8_t> out, int batch = 1,
           std::span<int16_t> scratch = {}, ColumnRange range = {}) const;
  // run() for every rung at once: outs[r] (rung_count spans) receives
  // rung r's output, and an empty span skips that rung. The pass stops
  // at the lowest rung stored.
  void run_rungs(std::span<const int8_t> in,
                 std::span<const std::span<int8_t>> outs, int batch = 1,
                 std::span<int16_t> scratch = {},
                 ColumnRange range = {}) const;
};

}  // namespace ataman
