#include "src/nn/engine.hpp"

#include <algorithm>

#include "src/core/eval.hpp"
#include "src/mcu/stream_plan.hpp"
#include "src/nn/qkernels_ref.hpp"

namespace ataman {

namespace {

// Reference kernel table: every step through the reference kernels,
// image by image, under `mask` (the skip row looked up by approximable
// ordinal at run time) and with the optional conv-input tap.
class RefKernels final : public KernelTable {
 public:
  RefKernels(const QModel& model, const SkipMask* mask, const ConvTap* tap)
      : model_(model), mask_(mask), tap_(tap) {}

  void run_step(const ExecStep& step, const StepIO& io) const override {
    const QLayer& layer = model_.layers[static_cast<size_t>(step.layer)];
    const uint8_t* skip = nullptr;
    if (step.approx_ordinal >= 0) {
      if (tap_ != nullptr && *tap_) {
        for (int b = 0; b < io.batch; ++b)
          (*tap_)(step.approx_ordinal, layer, io.image(b).in_a);
      }
      if (mask_ != nullptr) skip = mask_->row(step.approx_ordinal);
    }
    run_step_ref(layer, io, skip);
  }

 private:
  const QModel& model_;
  const SkipMask* mask_;
  const ConvTap* tap_;
};

// Executed (non-skipped) MACs per output position of an approximable
// layer under `skip` — the mask-aware analogue of op.macs / positions.
int64_t retained_macs_per_position(const OpDescriptor& op,
                                   const uint8_t* skip) {
  const int64_t per_pos = static_cast<int64_t>(op.channels) * op.patch;
  if (skip == nullptr) return per_pos;
  int64_t skipped = 0;
  for (int64_t i = 0; i < per_pos; ++i) skipped += skip[i] != 0;
  return per_pos - skipped;
}

}  // namespace

RefEngine::RefEngine(const QModel* model)
    : InferenceEngine(model, "ref"), plan_(ExecPlan::compile(*model)) {}

std::vector<int8_t> RefEngine::run(std::span<const uint8_t> image) const {
  return run(image, default_mask_);
}

std::vector<int8_t> RefEngine::run(std::span<const uint8_t> image,
                                   const SkipMask* mask,
                                   const ConvTap& tap) const {
  if (mask != nullptr) mask->validate(model());
  return plan_.run(image, RefKernels(model(), mask, &tap));
}

std::vector<int8_t> RefEngine::run_from(
    int layer_begin, std::span<const int8_t> activations) const {
  return run_from(layer_begin, activations, default_mask_);
}

std::vector<int8_t> RefEngine::run_from(int layer_begin,
                                        std::span<const int8_t> activations,
                                        const SkipMask* mask,
                                        const ConvTap& tap) const {
  const int layer_count = static_cast<int>(model().layers.size());
  check(layer_begin >= 0 && layer_begin <= layer_count,
        "run_from layer index out of range");
  if (!model().linear_boundary(layer_begin))
    fail("run_from must resume at a linear boundary of the DAG (layer " +
         std::to_string(layer_begin) + " is crossed by a skip edge)");
  if (mask != nullptr) mask->validate(model());
  return plan_.run_from(layer_begin, activations,
                        RefKernels(model(), mask, &tap));
}

std::vector<int8_t> RefEngine::run_incremental(
    StreamState& state, std::span<const uint8_t> new_columns) const {
  const QModel& m = model();
  const SkipMask* mask = default_mask_;
  if (mask != nullptr) mask->validate(m);
  if (!state.started()) {
    state.bound_mask = mask;
  } else {
    check(state.bound_mask == mask,
          "run_incremental: mask changed mid-session — a streaming session "
          "is one fixed configuration (open a new session to switch)");
  }

  const int64_t col_elems = static_cast<int64_t>(m.in_h) * m.in_c;
  check(!new_columns.empty() &&
            static_cast<int64_t>(new_columns.size()) % col_elems == 0,
        "run_incremental: new_columns must be whole [h][s][c] columns");
  const int s =
      static_cast<int>(static_cast<int64_t>(new_columns.size()) / col_elems);
  check(s <= m.in_w,
        "run_incremental: more new columns than the input width");
  check(state.started() || s == m.in_w,
        "run_incremental: a session's first frame must push a full window");

  // Assemble the quantized input tensor: the previous frame's input
  // shifted left by s columns, the pushed columns quantized (q = pixel -
  // 128, exactly as quantize_input) into the tail.
  std::vector<int8_t> q_in(static_cast<size_t>(m.in_h) * m.in_w * m.in_c);
  const int keep = m.in_w - s;  // columns carried over from frame n-1
  for (int y = 0; y < m.in_h; ++y) {
    int8_t* row = q_in.data() + static_cast<size_t>(y) * m.in_w * m.in_c;
    if (keep > 0) {
      const int8_t* prev = state.past.front()[0].data() +
                           static_cast<size_t>(y) * m.in_w * m.in_c;
      std::copy(prev + static_cast<size_t>(s) * m.in_c,
                prev + static_cast<size_t>(m.in_w) * m.in_c, row);
    }
    const size_t fresh = static_cast<size_t>(s) * m.in_c;
    quantize_pixels(m.input,
                    new_columns.subspan(static_cast<size_t>(y) * fresh, fresh),
                    std::span<int8_t>(row + keep * m.in_c, fresh));
  }

  // The splice plan for this frame: newest-first stride history capped
  // by the ring fill (frame 0 plans a full recompute of every layer).
  std::vector<int> strides;
  strides.reserve(state.past_strides.size() + 1);
  strides.push_back(s);
  strides.insert(strides.end(), state.past_strides.begin(),
                 state.past_strides.end());
  const StreamPlan plan =
      plan_stream(m, strides, static_cast<int>(state.past.size()));

  // Full per-tensor materialization (no slot aliasing): every tensor of
  // this frame joins the ring, and splice sources read the past frames'
  // tensors directly.
  const int layer_count = static_cast<int>(m.layers.size());
  std::vector<std::vector<int8_t>> tensors(
      static_cast<size_t>(layer_count) + 1);
  tensors[0] = std::move(q_in);

  int approx_ordinal = 0;
  int64_t recomputed = 0, spliced = 0;
  for (int l = 0; l < layer_count; ++l) {
    const QLayer& layer = m.layers[static_cast<size_t>(l)];
    const StreamLayerPlan& lp = plan.layers[static_cast<size_t>(l)];
    const OpDescriptor op = describe_layer(layer);
    const std::vector<int> ins = m.inputs_of(l);
    const std::span<const int8_t> in_a = tensors[static_cast<size_t>(ins[0])];
    const std::span<const int8_t> in_b =
        ins.size() > 1
            ? std::span<const int8_t>(tensors[static_cast<size_t>(ins[1])])
            : std::span<const int8_t>();
    const uint8_t* skip = nullptr;
    if (op.skippable) {
      if (mask != nullptr) skip = mask->row(approx_ordinal);
      ++approx_ordinal;
    }

    std::vector<int8_t>& out = tensors[static_cast<size_t>(l) + 1];
    out.assign(static_cast<size_t>(op.out_elems), 0);
    if (lp.spliced) {
      // Copy the proven-equal band row by row from frame n - lookback
      // (source column = dest column + shift), then recompute only the
      // halo columns on either side.
      const std::vector<int8_t>& src =
          state.past[static_cast<size_t>(lp.lookback - 1)]
                    [static_cast<size_t>(l) + 1];
      const size_t row_elems =
          static_cast<size_t>(lp.out_cols) * lp.out_ch;
      const size_t band_elems =
          static_cast<size_t>(lp.splice_hi - lp.splice_lo) * lp.out_ch;
      for (int y = 0; y < lp.out_rows; ++y) {
        std::copy_n(
            src.data() + static_cast<size_t>(y) * row_elems +
                static_cast<size_t>(lp.splice_lo + lp.splice_shift) *
                    lp.out_ch,
            band_elems,
            out.data() + static_cast<size_t>(y) * row_elems +
                static_cast<size_t>(lp.splice_lo) * lp.out_ch);
      }
      if (const auto* conv = std::get_if<QConv2D>(&layer)) {
        conv2d_ref_cols(*conv, in_a, out, 0, lp.splice_lo, skip);
        conv2d_ref_cols(*conv, in_a, out, lp.splice_hi, lp.out_cols, skip);
      } else if (const auto* dw = std::get_if<QDepthwiseConv2D>(&layer)) {
        depthwise_conv2d_ref_cols(*dw, in_a, out, 0, lp.splice_lo, skip);
        depthwise_conv2d_ref_cols(*dw, in_a, out, lp.splice_hi, lp.out_cols,
                                  skip);
      }
      spliced += static_cast<int64_t>(band_elems) * lp.out_rows;
    } else {
      run_layer_ref(layer, in_a, in_b, out, skip);
    }
    if (op.macs > 0) {
      // Executed-MAC accounting, mask-aware: conv/depthwise scale with
      // recomputed positions; dense tails always recompute in full.
      recomputed += op.skippable ? retained_macs_per_position(op, skip) *
                                       lp.recomputed_positions
                                 : op.macs;
    }
  }

  state.last_recomputed_macs = recomputed;
  state.last_spliced_elems = spliced;
  state.total_recomputed_macs += recomputed;
  state.total_full_macs += mac_ops();
  ++state.frames;

  std::vector<int8_t> logits = tensors[static_cast<size_t>(layer_count)];
  state.past.push_front(std::move(tensors));
  state.past_strides.insert(state.past_strides.begin(), s);
  while (static_cast<int>(state.past.size()) > kMaxStreamLookback) {
    state.past.pop_back();
    state.past_strides.pop_back();
  }
  return logits;
}

void RefEngine::run_batch(
    std::span<const std::span<const uint8_t>> images,
    std::vector<std::vector<int8_t>>& logits_out) const {
  check_batch_nonempty(images);
  if (default_mask_ != nullptr) default_mask_->validate(model());
  plan_.run_batch(images, RefKernels(model(), default_mask_, nullptr),
                  logits_out);
}

int RefEngine::classify(std::span<const uint8_t> image,
                        const SkipMask* mask) const {
  if (model().head == TaskHead::kScore) {
    return scored_class(model(),
                        reconstruction_score(model(), quantize_input(image),
                                             run(image, mask)));
  }
  return argmax_lowest_index(run(image, mask));
}

int64_t RefEngine::mac_ops() const {
  const int64_t total = model().mac_count();
  return default_mask_ != nullptr ? total - default_mask_->skipped_macs(model())
                                  : total;
}

double evaluate_quantized_accuracy(const QModel& model, const Dataset& ds,
                                   const SkipMask* mask, int limit) {
  RefEngine engine(&model);
  engine.bind_mask(mask);
  // Engine overload: evaluation proceeds through run_batch, so each
  // layer's weights stream once per sub-batch instead of once per image.
  return evaluate_batch(engine, ds, limit).top1;
}

}  // namespace ataman
