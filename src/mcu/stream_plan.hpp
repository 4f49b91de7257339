// Streaming (temporal) reuse plan: which output columns of each layer
// can be spliced from a previous frame instead of recomputed.
//
// Keyword spotting is a streaming workload: consecutive input windows
// overlap by all but a few time columns (time = the width axis of the
// NHWC tensors here). When frame n equals frame n-d shifted left by
// `shift` columns, a conv/depthwise output column j equals the old
// column j + shift/stride wherever its receptive field reads only
// shifted-equal data — the same int32 MAC sequence, so splicing the old
// column is *bitwise* identical to recomputing it. This header derives
// those splice bands once, from pure layer geometry; every engine
// executes them through the plan's streaming walker
// (ExecPlan::run_incremental) and the MCU cost model prices them
// (steady_state_stream_cost), so execution and costing can never
// disagree about what is recomputed.
//
// Band propagation rules, per layer (window stride st, pad p, kernel k):
//   * The input tensor at lookback d is valid on columns [0, w - shift_d)
//     with shift_d = the total columns pushed over the last d frames.
//   * conv/depthwise: the shift divides the layer stride or the band
//     dies (a misaligned shift lands output windows between old ones).
//     Otherwise out_shift = shift/st and the output band is
//       lo = ceil((in_lo + p) / st)        -- windows that would read
//                                             left padding are excluded:
//                                             the new frame reads
//                                             zero-point where the old
//                                             frame read real columns
//       hi = floor((in_hi + p - k)/st) + 1 -- every real-data tap must
//                                             lie in the input band
//                                             (right padding is shift-
//                                             invariant and needs no
//                                             exclusion)
//     additionally clamped to hi <= out_w - out_shift so the splice
//     source column exists.
//   * pooling: same propagation with p = 0, but pool outputs are always
//     recomputed (they are cheap, MAC-free reductions); only the band
//     is forwarded.
//   * dense / QAdd: full recompute, and the band dies downstream (a
//     dense output has no column structure; QAdd is conservatively cut).
//
// Lookback > 1 is what makes stride-2 layers streamable at odd shifts:
// at input stride 2 per frame, the tensor behind the second strided
// layer shifts by 1 column every *two* frames, so it splices from frame
// n-2 — this is why StreamState keeps a short ring of past frames
// rather than just the last one.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/quant/qtypes.hpp"

namespace ataman {

// Deepest lookback the planner considers, and the past frames a
// StreamState retains (its ring has one more slot, for the frame being
// computed). Covers stride products up to 4 at any frame stride — enough
// for every in-tree zoo model; deeper pyramids would only add RAM for
// bands the halo has already eroded.
constexpr int kMaxStreamLookback = 4;

// Validity band of one tensor versus one lookback depth: columns j in
// [lo, hi) satisfy tensor_n[:, j] == tensor_{n-d}[:, j + shift].
struct ColumnBand {
  int lo = 0, hi = 0;
  int shift = 0;
  bool valid() const { return hi > lo && shift > 0; }
};

struct StreamLayerPlan {
  // Splice decision (conv/depthwise only; everything else recomputes).
  bool spliced = false;
  int lookback = 0;      // splice source: frame n - lookback
  int splice_lo = 0;     // output columns [splice_lo, splice_hi) spliced
  int splice_hi = 0;
  int splice_shift = 0;  // source column = j + splice_shift

  // Output-tensor column geometry ([rows][cols][ch]; dense and the
  // final logits degenerate to a single column).
  int out_rows = 1, out_cols = 1, out_ch = 1;

  int recomputed_cols = 0;            // out_cols minus spliced columns
  int64_t recomputed_positions = 0;   // recomputed_cols * out_rows
  int64_t total_positions = 0;
  int64_t recomputed_macs = 0;        // unmasked MACs recomputed per frame
};

struct StreamPlan {
  std::vector<int> recent_strides;     // newest first, as planned against
  std::vector<StreamLayerPlan> layers;
  int64_t frame_macs = 0;    // sum of recomputed_macs (+ dense tails)
  int64_t full_macs = 0;     // QModel::mac_count(): the reuse-off cost
  int64_t spliced_elems = 0; // int8 elements copied instead of computed
  double reuse_ratio() const {
    return frame_macs > 0
               ? static_cast<double>(full_macs) / static_cast<double>(frame_macs)
               : 1.0;
  }
};

// Plan one frame. `recent_strides` holds the columns pushed by the
// current frame and the preceding ones, newest first: shift at lookback
// d is the sum of the first d entries, so lookback d needs at least d
// entries. `available_lookback` additionally caps the splice depth to
// the number of past frames actually retained (ring fill during
// warmup; 0 — the session's first frame — plans a full recompute of
// every layer).
StreamPlan plan_stream(const QModel& model,
                       std::span<const int> recent_strides,
                       int available_lookback);

// Steady-state plan at a constant per-frame stride: every lookback up to
// kMaxStreamLookback available — what the cost model prices.
StreamPlan plan_stream_steady(const QModel& model, int stride_cols);

}  // namespace ataman
