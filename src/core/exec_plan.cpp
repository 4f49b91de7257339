#include "src/core/exec_plan.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "src/cmsisnn/packed_kernels.hpp"  // kBatchLanes, conv_scratch_elems
#include "src/common/error.hpp"
#include "src/core/engine_iface.hpp"  // StreamState
#include "src/mcu/memory_model.hpp"
#include "src/mcu/stream_plan.hpp"
#include "src/nn/qkernels_ref.hpp"

namespace ataman {

namespace {

// q15 elements one image lane of a step's packed/unpacked kernel needs:
// the operand offset table and one planar input copy (conv; depthwise
// over expansion_geom()) or the expanded input vector (fc).
int64_t step_scratch_elems(const QLayer& layer) {
  if (const auto* conv = std::get_if<QConv2D>(&layer))
    return static_cast<int64_t>(conv_scratch_elems(conv->geom, 1));
  if (const auto* dw = std::get_if<QDepthwiseConv2D>(&layer))
    return static_cast<int64_t>(conv_scratch_elems(dw->expansion_geom(), 1));
  if (const auto* fc = std::get_if<QDense>(&layer)) return fc->in_dim;
  return 0;
}

// One call's working memory in a single allocation: the kernels' q15
// scratch, then the activation arena of the whole batch.
class Arena {
 public:
  Arena(const ExecPlan& plan, int batch)
      : scratch_elems_(static_cast<size_t>(plan.scratch_elems) *
                       static_cast<size_t>(std::min(batch, kBatchLanes))),
        batch_(batch) {
    const size_t act =
        static_cast<size_t>(plan.arena_elems) * static_cast<size_t>(batch);
    words_.resize(scratch_elems_ + (act + 1) / 2);
  }

  std::span<int16_t> scratch() { return {words_.data(), scratch_elems_}; }

  std::span<int8_t> tensor(const PlanTensor& t) {
    int8_t* base = reinterpret_cast<int8_t*>(words_.data() + scratch_elems_);
    return {base + static_cast<size_t>(t.offset) * batch_,
            static_cast<size_t>(t.elems) * batch_};
  }

 private:
  std::vector<int16_t> words_;
  size_t scratch_elems_;
  size_t batch_;
};

void run_steps(std::span<const ExecStep> steps, Arena& arena, int batch,
               const KernelTable& kernels) {
  for (const ExecStep& s : steps) {
    StepIO io;
    io.in_a = arena.tensor(s.in[0]);
    if (s.in[1].id >= 0) io.in_b = arena.tensor(s.in[1]);
    io.out = arena.tensor(s.out);
    io.batch = batch;
    io.scratch = arena.scratch();
    kernels.run_step(s, io);
  }
}

// A streaming state's ring holds one frame per lookback plus the frame
// being computed, after the q15 scratch in the same allocation.
constexpr int kRingSlots = kMaxStreamLookback + 1;

// Tensor `id` of the frame in ring slot `slot`.
std::span<int8_t> frame_tensor(const ExecPlan& plan, StreamState& state,
                               int slot, int id) {
  int8_t* ring =
      reinterpret_cast<int8_t*>(state.words.data() + plan.scratch_elems);
  const auto t = static_cast<size_t>(id);
  return {ring + slot * plan.frame_offsets.back() + plan.frame_offsets[t],
          static_cast<size_t>(plan.frame_offsets[t + 1] -
                              plan.frame_offsets[t])};
}

}  // namespace

StepIO StepIO::image(int b) const {
  const auto slice = [&](auto span) {
    const size_t n = span.size() / static_cast<size_t>(batch);
    return span.subspan(static_cast<size_t>(b) * n, n);
  };
  return {slice(in_a), slice(in_b), slice(out), 1, scratch, cols};
}

void run_step_ref(const QLayer& layer, const StepIO& io,
                  const uint8_t* skip) {
  for (int b = 0; b < io.batch; ++b) {
    const StepIO one = io.image(b);
    run_layer_ref(layer, one.in_a, one.in_b, one.out, skip, io.cols);
  }
}

void TapKernels::run_step(const ExecStep& step, const StepIO& io) const {
  if (step.approx_ordinal >= 0 && tap_) {
    const QLayer& layer = model_.layers[static_cast<size_t>(step.layer)];
    for (int b = 0; b < io.batch; ++b)
      tap_(step.approx_ordinal, layer, io.image(b).in_a);
  }
  inner_.run_step(step, io);
}

ExecPlan ExecPlan::compile(const QModel& model) {
  const ActivationPlan liveness = plan_activations(model);
  ExecPlan plan;
  plan.model = &model;
  for (size_t v = 0; v < plan.input_table.size(); ++v)
    plan.input_table[v] = model.input.quantize(static_cast<float>(v) / 255.0f);
  std::vector<int64_t> slot_offset(liveness.slot_elems.size());
  for (size_t s = 0; s < slot_offset.size(); ++s) {
    slot_offset[s] = plan.arena_elems;
    plan.arena_elems += liveness.slot_elems[s];
  }
  plan.frame_offsets.push_back(0);
  for (size_t t = 0; t < liveness.tensors.size(); ++t) {
    const ActivationPlan::Tensor& info = liveness.tensors[t];
    plan.tensors.push_back({static_cast<int>(t),
                            slot_offset[static_cast<size_t>(info.slot)],
                            info.elems});
    plan.frame_offsets.push_back(plan.frame_offsets.back() + info.elems);
  }

  int ordinal = 0;
  for (int l = 0; l < static_cast<int>(model.layers.size()); ++l) {
    const QLayer& layer = model.layers[static_cast<size_t>(l)];
    const OpDescriptor d = describe_layer(layer);
    ExecStep step;
    step.kind = d.kind;
    step.layer = l;
    if (d.skippable) step.approx_ordinal = ordinal++;
    step.macs = d.macs;
    const std::vector<int> ins = model.inputs_of(l);
    for (size_t i = 0; i < ins.size(); ++i)
      step.in[i] = plan.tensors[static_cast<size_t>(ins[i])];
    step.out = plan.tensors[static_cast<size_t>(l) + 1];
    plan.scratch_elems =
        std::max(plan.scratch_elems, step_scratch_elems(layer));
    plan.steps.push_back(step);
  }
  return plan;
}

void ExecPlan::quantize_input(std::span<const uint8_t> pixels,
                              std::span<int8_t> out) const {
  check(pixels.size() == out.size(), "quantize_input: size mismatch");
  std::ranges::transform(pixels, out.begin(),
                         [&](uint8_t v) { return input_table[v]; });
}

std::vector<int8_t> ExecPlan::run(std::span<const uint8_t> image,
                                  const KernelTable& kernels) const {
  check(static_cast<int64_t>(image.size()) == tensors[0].elems,
        "input image size mismatch");
  Arena arena(*this, 1);
  quantize_input(image, arena.tensor(tensors[0]));
  run_steps(steps, arena, 1, kernels);
  const std::span<const int8_t> out = arena.tensor(tensors.back());
  return {out.begin(), out.end()};
}

void ExecPlan::run_batch(std::span<const std::span<const uint8_t>> images,
                         const KernelTable& kernels,
                         std::vector<std::vector<int8_t>>& logits_out) const {
  const int batch = static_cast<int>(images.size());
  Arena arena(*this, batch);
  const size_t in_elems = static_cast<size_t>(tensors[0].elems);
  const std::span<int8_t> in = arena.tensor(tensors[0]);
  for (size_t b = 0; b < images.size(); ++b) {
    check(images[b].size() == in_elems, "input image size mismatch");
    quantize_input(images[b], in.subspan(b * in_elems, in_elems));
  }
  run_steps(steps, arena, batch, kernels);
  const size_t out_elems = static_cast<size_t>(tensors.back().elems);
  const std::span<const int8_t> out = arena.tensor(tensors.back());
  logits_out.resize(images.size());
  for (size_t b = 0; b < images.size(); ++b) {
    const auto image_out = out.subspan(b * out_elems, out_elems);
    logits_out[b].assign(image_out.begin(), image_out.end());
  }
}

std::vector<int8_t> ExecPlan::run_range(int first, int end,
                                        std::span<const int8_t> activations,
                                        const KernelTable& kernels,
                                        int batch) const {
  check(first >= 0 && first <= end && end <= static_cast<int>(steps.size()),
        "run_range step range out of bounds");
  check(batch >= 1, "run_range: batch must be >= 1");
  const PlanTensor& entry = tensors[static_cast<size_t>(first)];
  if (static_cast<int64_t>(activations.size()) != entry.elems * batch)
    fail("run_range activation size mismatch at layer " +
         std::to_string(first));
  Arena arena(*this, batch);
  std::copy(activations.begin(), activations.end(),
            arena.tensor(entry).begin());
  run_steps(std::span(steps).subspan(static_cast<size_t>(first),
                                     static_cast<size_t>(end - first)),
            arena, batch, kernels);
  const std::span<const int8_t> out =
      arena.tensor(tensors[static_cast<size_t>(end)]);
  return {out.begin(), out.end()};
}

std::vector<int8_t> ExecPlan::run_incremental(
    StreamState& state, std::span<const uint8_t> new_columns,
    const KernelTable& kernels) const {
  const QModel& m = *model;
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
  if (!state.started()) {  // bind the ring to this plan's frame layout
    state.layout = frame_offsets;
    state.words.assign(static_cast<size_t>(scratch_elems) +
                           static_cast<size_t>(
                               kRingSlots * frame_offsets.back() + 1) / 2,
                       0);
    state.plan.layers.clear();
  }
  check(state.layout == frame_offsets,
        "run_incremental: the stream state is bound to a model with a "
        "different frame layout");

  // The input tensor: the previous frame's input shifted left by s
  // columns, the pushed columns quantized into the tail.
  const int slot = (state.head + 1) % kRingSlots;
  int8_t* in = frame_tensor(*this, state, slot, 0).data();
  const int8_t* prev = frame_tensor(*this, state, state.head, 0).data();
  const size_t row = static_cast<size_t>(m.in_w) * m.in_c;
  const size_t fresh = static_cast<size_t>(s) * m.in_c;
  for (size_t y = 0; y < static_cast<size_t>(m.in_h); ++y) {
    std::copy(prev + y * row + fresh, prev + (y + 1) * row, in + y * row);
    quantize_input(new_columns.subspan(y * fresh, fresh),
                   {in + (y + 1) * row - fresh, fresh});
  }

  // The splice plan: newest-first stride history capped by the ring
  // fill (a first frame plans a full recompute of every layer). The
  // memoized plan is reused while its history matches.
  std::array<int, kMaxStreamLookback> strides{};
  for (int d = 0; d < state.fill; ++d)
    strides[static_cast<size_t>(d)] =
        d == 0 ? s : state.past_strides[static_cast<size_t>(d - 1)];
  const auto history =
      std::span<const int>(strides).first(static_cast<size_t>(state.fill));
  if (state.plan.layers.empty() ||
      !std::ranges::equal(state.plan.recent_strides, history))
    state.plan = plan_stream(m, history, state.fill);

  int64_t recomputed = 0, spliced = 0;
  for (size_t i = 0; i < steps.size(); ++i) {
    const ExecStep& step = steps[i];
    const StreamLayerPlan& lp = state.plan.layers[i];
    StepIO io;
    io.in_a = frame_tensor(*this, state, slot, step.in[0].id);
    if (step.in[1].id >= 0)
      io.in_b = frame_tensor(*this, state, slot, step.in[1].id);
    io.out = frame_tensor(*this, state, slot, step.out.id);
    io.scratch = {state.words.data(), static_cast<size_t>(scratch_elems)};
    if (lp.spliced) {
      // Copy the proven-equal band row by row from frame n - lookback
      // (source column = dest column + shift), then compute only the
      // halo columns on either side.
      const int8_t* src =
          frame_tensor(*this, state,
                       (state.head - lp.lookback + 1 + kRingSlots) % kRingSlots,
                       step.out.id)
              .data();
      const size_t row_elems = static_cast<size_t>(lp.out_cols) * lp.out_ch;
      const size_t band_elems =
          static_cast<size_t>(lp.splice_hi - lp.splice_lo) * lp.out_ch;
      const size_t dst_off = static_cast<size_t>(lp.splice_lo) * lp.out_ch;
      const size_t src_off =
          static_cast<size_t>(lp.splice_lo + lp.splice_shift) * lp.out_ch;
      for (size_t y = 0; y < static_cast<size_t>(lp.out_rows); ++y) {
        std::copy_n(src + y * row_elems + src_off, band_elems,
                    io.out.data() + y * row_elems + dst_off);
      }
      io.cols = {0, lp.splice_lo};
      kernels.run_step(step, io);
      io.cols = {lp.splice_hi, lp.out_cols};
      kernels.run_step(step, io);
      spliced += static_cast<int64_t>(band_elems) * lp.out_rows;
    } else {
      kernels.run_step(step, io);
    }
    recomputed += kernels.executed_macs(step) / lp.total_positions *
                  lp.recomputed_positions;
  }

  // Every step succeeded: commit the frame.
  state.head = slot;
  state.fill = std::min(state.fill + 1, kMaxStreamLookback);
  state.past_strides = strides;
  state.last_recomputed_macs = recomputed;
  state.last_spliced_elems = spliced;
  ++state.frames;
  const std::span<const int8_t> out =
      frame_tensor(*this, state, slot, tensors.back().id);
  return {out.begin(), out.end()};
}

}  // namespace ataman
