// Packed (CMSIS-NN-style) kernels: the exact baseline of the paper [2].
//
// Convolution = q15 im2col + dual-MAC matrix multiply over offline-packed
// weight pairs (SMLAD), exactly the structure of arm_convolve_HWC_q7 /
// arm_nn_mat_mult_kernel_q7_q15. Numerics are bit-exact with the golden
// reference kernels (tests assert this across shapes); only the priced
// instruction stream differs.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/cmsisnn/im2col_q15.hpp"
#include "src/cmsisnn/smlad.hpp"
#include "src/common/error.hpp"
#include "src/common/fixed_point.hpp"
#include "src/quant/qtypes.hpp"

namespace ataman {

// Offline-packed weights for one conv/fc layer: per output channel,
// ceil(patch/2) SMLAD constants (pairs) plus an odd leftover flag.
struct PackedWeights {
  int patch = 0;        // operands per output channel
  int out_c = 0;
  int pairs_per_chan = 0;
  bool has_single = false;
  // [out_c][pairs_per_chan] SMLAD constants; lo lane = even operand.
  std::vector<uint32_t> pair_constants;
  // [out_c] leftover last operand (when patch is odd), as int16 lane.
  std::vector<int16_t> single_weights;

  static PackedWeights pack(std::span<const int8_t> weights, int out_c,
                            int patch);
};

// q15 working buffer of one kernel call: the caller's `scratch` when it
// holds `n` elements (the plan walker passes arena scratch, so warm runs
// never allocate), else an owned buffer. Contents are unspecified on
// entry; every kernel writes what it reads.
class Q15Scratch {
 public:
  Q15Scratch(std::span<int16_t> scratch, size_t n)
      : owned_(scratch.size() < n ? n : 0),
        buf_(scratch.size() < n ? std::span<int16_t>(owned_)
                                : scratch.first(n)) {}
  Q15Scratch(const Q15Scratch&) = delete;
  Q15Scratch& operator=(const Q15Scratch&) = delete;

  int16_t* data() const { return buf_.data(); }
  int16_t& operator[](size_t i) const { return buf_[i]; }
  void zero() const { std::fill(buf_.begin(), buf_.end(), int16_t{0}); }

 private:
  std::vector<int16_t> owned_;
  std::span<int16_t> buf_;
};

// Image lanes of a batched call. The host kernels block kPosBlock
// output columns per SMLAD step (smlad8, one SSE2 register pair per
// image); a batch adds kBatchLanes images on top, so each weight constant
// is broadcast once for 4 x 8 positions.
inline constexpr int kBatchLanes = 4;

// The requantize epilogue of every packed/unpacked kernel.
inline int8_t requant_clamp(int32_t acc, const QuantizedMultiplier& requant,
                            int32_t out_zp, int32_t act_min, int32_t act_max) {
  const int32_t scaled =
      multiply_by_quantized_multiplier(acc, requant) + out_zp;
  return static_cast<int8_t>(std::clamp(scaled, act_min, act_max));
}

// The accumulators of one block step: `Lanes` images x kPosBlock output
// columns, over the block expansion `cols` (image lane j at
// cols + j * lane_stride, laid out by im2col_block_q15).
template <int Lanes>
struct BlockAcc {
  const int16_t* cols = nullptr;
  size_t lane_stride = 0;
  std::array<Acc8, Lanes> acc{};

  void reset(int32_t bias) { acc.fill(acc8_splat(bias)); }
  // One SMLAD step on operand offsets a (low lane) and b (high lane).
  void mac(uint32_t w, size_t a, size_t b) {
    for (int j = 0; j < Lanes; ++j) {
      const int16_t* lane = cols + static_cast<size_t>(j) * lane_stride;
      smlad8(w, lane + a * kPosBlock, lane + b * kPosBlock, acc[j]);
    }
  }
  // One SMLABB step: a zero high weight lane makes SMLAD SMLABB.
  void mac_single(int16_t w, size_t a) { mac(pack_q15_pair(0, w), a, a); }
};

// The one loop of every conv-shaped host kernel (packed conv, packed
// depthwise, unpacked programs) over a contiguous batch: image b at
// in + b * in_elems and out + b * out_elems of geometry `g`. Per lane
// block of `Lanes` images, output row and block of up to kPosBlock
// columns inside `range`, it expands the block once per image and calls
// `channel(oc, block)` per output channel; `channel` accumulates into
// `block` and returns the channel's requant multiplier, and the loop
// requantizes and stores the live positions of the live images. Ragged
// blocks (fewer columns or images) compute every lane over defined
// zero-filled operands and store only the live ones; int32 accumulation
// wraps, so the walk order never changes a bit.
template <int Lanes, typename Channel>
void run_conv_blocks_lanes(const ConvGeom& g, int32_t in_zp,
                           int32_t out_zp, int32_t act_min, int32_t act_max,
                           std::span<const int8_t> in, std::span<int8_t> out,
                           int batch, std::span<int16_t> scratch,
                           ColumnRange range, const Channel& channel) {
  check(batch >= 1, "conv kernel: batch must be >= 1");
  const size_t in_elems = static_cast<size_t>(g.in_h) * g.in_w * g.in_c;
  const size_t out_elems = static_cast<size_t>(g.positions()) * g.out_c;
  check(in.size() == in_elems * static_cast<size_t>(batch),
        "batched conv input size mismatch");
  check(out.size() == out_elems * static_cast<size_t>(batch),
        "batched conv output size mismatch");
  const int ow = g.out_w();
  const int ox_end = range.end_within(ow);

  BlockAcc<Lanes> block;
  block.lane_stride = static_cast<size_t>(g.patch_size()) * kPosBlock;
  const Q15Scratch cols(scratch, Lanes * block.lane_stride);
  block.cols = cols.data();
  int32_t sums[kPosBlock] = {};
  for (int b0 = 0; b0 < batch; b0 += Lanes) {
    const int bn = std::min(Lanes, batch - b0);
    if (bn < Lanes) cols.zero();
    for (int oy = 0; oy < g.out_h(); ++oy) {
      for (int ox0 = range.begin; ox0 < ox_end; ox0 += kPosBlock) {
        const int n = std::min(kPosBlock, ox_end - ox0);
        for (int j = 0; j < bn; ++j) {
          im2col_block_q15(
              g, in_zp,
              in.subspan(static_cast<size_t>(b0 + j) * in_elems, in_elems),
              oy, ox0, n,
              cols.data() + static_cast<size_t>(j) * block.lane_stride);
        }
        const size_t block_off =
            (static_cast<size_t>(oy) * ow + ox0) * g.out_c;
        for (int oc = 0; oc < g.out_c; ++oc) {
          const QuantizedMultiplier& requant = channel(oc, block);
          for (int j = 0; j < bn; ++j) {
            acc8_store(block.acc[static_cast<size_t>(j)], sums);
            int8_t* dst = out.data() +
                          static_cast<size_t>(b0 + j) * out_elems + block_off +
                          static_cast<size_t>(oc);
            for (int p = 0; p < n; ++p) {
              dst[static_cast<size_t>(p) * g.out_c] =
                  requant_clamp(sums[p], requant, out_zp, act_min, act_max);
            }
          }
        }
      }
    }
  }
}

// A single image runs one lane; a batch runs lane blocks of kBatchLanes.
template <typename Channel>
void run_conv_blocks(const ConvGeom& g, int32_t in_zp, int32_t out_zp,
                     int32_t act_min, int32_t act_max,
                     std::span<const int8_t> in, std::span<int8_t> out,
                     int batch, std::span<int16_t> scratch, ColumnRange range,
                     const Channel& channel) {
  if (batch == 1) {
    return run_conv_blocks_lanes<1>(g, in_zp, out_zp, act_min, act_max, in,
                                    out, batch, scratch, range, channel);
  }
  run_conv_blocks_lanes<kBatchLanes>(g, in_zp, out_zp, act_min, act_max, in,
                                     out, batch, scratch, range, channel);
}

// Every kernel below runs a contiguous batch of `batch` images: image b
// lives at in + b * in_elems and out + b * out_elems. Numerics are
// bitwise identical to running each image alone and to the reference
// kernels. Conv and depthwise run through run_conv_blocks: one image
// (batch 1) or lane blocks of kBatchLanes images, each over blocks of
// kPosBlock output columns, and compute only the output columns in
// `range`. `scratch` is optional q15 working memory (see Q15Scratch;
// results never depend on it). The host blocking changes no priced
// number: the cost model prices the MCU's one-position instruction
// stream.
void packed_conv2d(const QConv2D& layer, const PackedWeights& packed,
                   std::span<const int8_t> in, std::span<int8_t> out,
                   int batch = 1, std::span<int16_t> scratch = {},
                   ColumnRange range = {});

// Depthwise loop kernel in the arm_depthwise_conv_s8 shape: one shared
// zero-point-corrected q15 expansion per output position, then a
// per-channel tap loop. The expansion is the conv one (im2col_block_q15)
// over expansion_geom(): taps x channels, channel innermost, so channel
// ch of tap t sits at t * channels + ch — the [k][k][c] weight order. On
// the MCU, per-channel filters cannot feed the dual-MAC path over
// adjacent operands (two weights of one SMLAD would hit two different
// accumulators), which is why no PackedWeights stream exists for it —
// exactly CMSIS-NN's structure, and priced accordingly
// (CortexM33CostTable::packed_depthwise_per_mac). The host pairs two taps
// of the same channel per smlad8 step instead (both hit that channel's
// accumulator). Bit-exact with depthwise_conv2d_ref.
void packed_depthwise_conv2d(const QDepthwiseConv2D& layer,
                             std::span<const int8_t> in, std::span<int8_t> out,
                             int batch = 1, std::span<int16_t> scratch = {},
                             ColumnRange range = {});

// One image at a time: the expanded input vector against each packed
// weight row (smlad_dot).
void packed_dense(const QDense& layer, const PackedWeights& packed,
                  std::span<const int8_t> in, std::span<int8_t> out,
                  int batch = 1, std::span<int16_t> scratch = {});

}  // namespace ataman
