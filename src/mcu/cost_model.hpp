// Cortex-M33 cycle cost model.
//
// Latency on this MCU class is a deterministic function of the executed
// instruction stream (in-order core, no data cache, flat flash with a
// prefetch buffer); the paper itself relies on this by reporting that its
// offline cycle counters "closely align with the cycles of the actual
// model deployment" (§II-C). This model prices the instruction streams of
// the three kernel families in the repo:
//
// 1. Packed CMSIS-NN-style convolution (the exact baseline [2]).
//    im2col expands the receptive field to int16 (q15), then a dual-MAC
//    inner loop runs SMLAD over weight pairs. CMSIS has two variants:
//      * FAST  (in_c % 4 == 0 and out_c % 2 == 0): 2 output channels x
//        2 columns per iteration, weights expanded with SXTB16; ~2.9
//        cycles per weight pair (1.45/MAC).
//      * BASIC (everything else, e.g. RGB input layers): scalar LDRSB/
//        SMLABB code, ~11.8 cycles per pair (5.9/MAC).
//    This split is what makes small/odd-geometry CNNs (the paper's LeNet,
//    2.94 cyc/MAC end to end) proportionally slower than wide 3x3 CNNs
//    (AlexNet, 1.79 cyc/MAC): the RGB stem runs on the basic path and
//    per-channel epilogues amortize worse.
//
// 2. Unpacked fixed-weight convolution (the paper's §II-B contribution).
//    Straight-line code; per retained pair: MOVW+MOVT materialize the
//    packed 32-bit weight constant (two sign-extended int8 weights, e.g.
//    64*2^16 + 20 = 4194324 for w1=64, w2=20), one activation-pair load,
//    one SMLAD, plus amortized flash-fetch stalls (straight-line code
//    defeats the loop prefetch buffer). No im2col, no loop/branch
//    overhead, cheaper epilogue. Note the per-pair cost (~5.5) sits
//    *between* the basic and fast packed paths: unpacking alone speeds up
//    basic-path layers dramatically and costs wide fast-path layers a
//    little — the headline wins of Table II come from unpacking combined
//    with significance skipping (fewer executed pairs), which is exactly
//    the paper's "cooperative" framing.
//
// 3. Packed fully-connected / pooling / softmax, common to all engines.
//
// All constants live in one fixed table per price list, kM33Costs and
// kXCubeCosts (and the flash/RAM table kMemoryCosts in memory_model.hpp):
// calibrated once, read by every pricing function directly, and taken by
// no option, constructor or parameter. Edit a table in one place to
// re-price every engine, bench and report (tests/test_cost_golden.cpp
// pins the result).
#pragma once

#include <cstdint>
#include <vector>

#include "src/mcu/deploy_report.hpp"
#include "src/quant/qtypes.hpp"

namespace ataman {

struct StreamPlan;

struct CortexM33CostTable {
  // -- shared --
  double layer_dispatch = 400.0;     // runtime per-layer call/setup
  double softmax_per_logit = 30.0;

  // -- packed (CMSIS-like) convolution --
  double im2col_per_elem = 3.0;      // load q7, extend to q15, store
  double packed_fast_per_pair = 2.9; // 2x2 SMLAD kernel, per weight pair
  double packed_basic_per_mac = 5.9; // scalar path, per MAC
  double packed_chan_epilogue = 30.0;  // bias+requant+saturate+store per
                                       // (position x channel)
  // -- packed fully-connected --
  double fc_per_pair = 2.9;
  double fc_out_epilogue = 30.0;

  // -- unpacked convolution (this paper) --
  double unpacked_per_pair = 5.5;    // MOVW+MOVT+LDR+SMLAD+fetch stalls
  double unpacked_per_single = 3.5;  // MOVW+LDRSB+SMLABB for odd leftovers
  double unpacked_chan_epilogue = 24.0;  // branchless epilogue
  double unpacked_layer_setup = 200.0;   // customized runtime, no dispatch
                                         // table walk

  // -- packed depthwise convolution --
  // CMSIS-NN depthwise kernels (arm_depthwise_conv_s8) run a scalar
  // per-channel tap loop — the dual-MAC trick needs two weights against
  // one accumulator, which a per-channel filter cannot feed from
  // consecutive memory. Priced per MAC like the basic conv path, with a
  // slightly cheaper constant (no im2col, better locality). Calibrated
  // against bench/kernel_micro (BM_DepthwisePackedCmsis vs
  // BM_DepthwiseUnpacked/0): at these rates packed depthwise prices
  // ~1.5x the unpacked zero-skip program on the 16x16x24 3x3 layer,
  // matching the scalar-loop vs paired-straight-line instruction shape;
  // pinned by tests/test_mcu.cpp so re-pricing is a deliberate act.
  double packed_depthwise_per_mac = 5.2;

  // -- pooling --
  double pool_per_output_elem_per_tap = 2.0;  // load+compare per window tap
  double avgpool_div_per_output = 7.0;  // rounding divide + saturate per
                                        // output element (SDIV + fixup)

  // -- residual add --
  // Per output element: two loads, two fixed-point requants (SMMUL-class
  // rounding multiply + shift each), add, saturate, store. Identical for
  // every engine — QAdd has no weights to pack or unpack.
  double qadd_per_elem = 9.0;

  // -- streaming splice --
  // Per int8 element copied from the activation ring instead of
  // recomputed (steady-state streaming, src/mcu/stream_plan.hpp). Bands
  // are contiguous per row, so the copy runs word-wide LDR/STR (~0.5
  // cycles/byte) plus a little per-row loop overhead.
  double stream_splice_per_elem = 0.6;
};

inline constexpr CortexM33CostTable kM33Costs{};

// Simulated X-CUBE-AI comparator [8] price list.
//
// X-CUBE-AI is STMicroelectronics' closed-source deployment tool; the
// paper compares against it in Table II. Since neither its source nor its
// kernels are available, it is modeled as what it externally is: an
// *exact* int8 inference library (identical accuracy to CMSIS-NN in
// Table II, so the "xcube" engine runs the packed plan bit-exactly) with
// its own cost profile — better-fused kernels (lower per-pair and
// epilogue costs, cheaper im2col) and a more compact flash layout (weight
// compression). The constants below were calibrated once against the
// paper's published LeNet/AlexNet rows (63.5 ms / 150.7 ms; 154 KB /
// 178 KB) and are otherwise never tuned per experiment; see
// docs/DESIGN.md for the substitution rationale.
struct XCubeCostTable {
  double basic_per_mac = 4.2;   // non-SIMD fallback path
  double fast_per_pair = 2.6;   // fused dual-MAC path
  double im2col_per_elem = 2.0;
  double chan_epilogue = 20.0;
  double fc_per_pair = 2.6;
  double fc_out_epilogue = 20.0;
  double pool_per_output_elem_per_tap = 1.6;
  double qadd_per_elem = 7.5;   // fused requantize-and-add, per element
  double layer_dispatch = 300.0;
  double softmax_per_logit = 25.0;

  // Flash: compact runtime plus weight compression.
  int64_t runtime_code = 40 * 1024;
  double weight_compression = 0.65;  // stored bytes per weight byte

  int64_t ram_runtime_reserve = 150 * 1024;
};

inline constexpr XCubeCostTable kXCubeCosts{};

// True when the layer qualifies for the CMSIS fast (dual-SMLAD) path.
bool packed_conv_uses_fast_path(const QConv2D& layer);

// Cycle counts -----------------------------------------------------------

int64_t packed_conv_cycles(const QConv2D& layer);

// Packed (loop-kernel) depthwise convolution.
int64_t packed_depthwise_cycles(const QDepthwiseConv2D& layer);

int64_t dense_cycles(const QDense& layer);

int64_t pool_cycles(const QMaxPool& layer);

int64_t avgpool_cycles(const QAvgPool& layer);

// Residual add: per-element requantize-and-add (same stream on every
// engine; never approximated, never unpacked).
int64_t qadd_cycles(const QAdd& layer);

// Per-step pricing --------------------------------------------------------
//
// One price function for every deployment: each engine design is a price
// list, and a model's cost is its layers priced one execution step at a
// time (runtime dispatch included) plus the final softmax.
//   * kPacked:   CMSIS-style loop kernels (the exact baseline).
//   * kUnpacked: approximable layers with a retained-operand count run
//                their unpacked program (its setup replaces dispatch);
//                everything else is priced as kPacked.
//   * kXCube:    X-CUBE-AI's fused kernels (kXCubeCosts).
// The Cortex-M33 lists (kM33Costs) round every kernel term per layer, so
// their sums are integral and the engines truncate them; the X-CUBE-AI
// list sums unrounded terms and rounds once.
enum class PriceList { kPacked, kUnpacked, kXCube };

// Adds the modeled cycles of executing `layer` as one step to `total`
// and returns that step's share. `static_pairs` / `static_singles` are
// the retained operands of an approximable layer's unpacked program
// (static_pairs < 0: the layer stays packed; read by kUnpacked only).
// `recomputed_positions` >= 0 prices a streamed frame that recomputes
// only that many output positions: an unpacked program pays its
// per-position terms for those positions only, and on kPacked a
// conv/depthwise kernel scales by the recomputed fraction (its im2col,
// MAC and epilogue terms are all per position). Other steps, and packed
// steps on the other lists, recompute in full.
double add_step_cycles(double& total, const QLayer& layer, PriceList prices,
                       int64_t static_pairs = -1, int64_t static_singles = 0,
                       int64_t recomputed_positions = -1);

// A whole model under one price list: `cycles` (unrounded sum), one
// profile row per layer (kind label, its cycles including dispatch,
// executed MACs) plus a softmax row, and the executed MACs. `pairs` /
// `singles` are indexed by approximable-layer ordinal as in
// unpacked_flash (missing or -1 entries stay packed). With a `stream`
// plan (src/mcu/stream_plan.hpp) the cycles price one streamed frame:
// each step at the plan's recomputed positions (add_step_cycles), plus
// stream_splice_per_elem per spliced element; MACs stay per full frame.
struct ModelPrice {
  double cycles = 0.0;
  int64_t total_cycles = 0;  // `cycles` rounded per the price list
  int64_t macs = 0;
  std::vector<LayerProfile> rows;
};

ModelPrice price_model(const QModel& model, PriceList prices,
                       const std::vector<int64_t>& static_pairs = {},
                       const std::vector<int64_t>& static_singles = {},
                       const StreamPlan* stream = nullptr);

// Whole-model cycles for the packed (exact CMSIS-like) engine, including
// per-layer dispatch and the final softmax.
int64_t packed_model_cycles(const QModel& model);

// Streaming (temporal reuse) ---------------------------------------------
//
// Steady-state per-frame cost of serving overlapping windows that
// advance `stride_cols` input columns per frame: the packed list priced
// by price_model over the steady-state splice plan of
// src/mcu/stream_plan.hpp (conv/depthwise kernels scale to the
// recomputed positions, spliced elements pay the copy rate, and pools /
// dense / QAdd / dispatch / softmax recompute in full), rounded to
// nearest.

struct StreamingCostRow {
  int stride_cols = 0;
  int64_t cycles_per_frame = 0;  // packed engine, steady state, reuse on
  int64_t full_cycles = 0;       // packed_model_cycles: the reuse-off frame
  int64_t macs_per_frame = 0;    // recomputed MACs (StreamPlan::frame_macs)
  int64_t full_macs = 0;
  int64_t spliced_elems = 0;
  double reuse_ratio = 0.0;      // full_macs / macs_per_frame
};

StreamingCostRow steady_state_stream_cost(const QModel& model, int stride_cols);

}  // namespace ataman
