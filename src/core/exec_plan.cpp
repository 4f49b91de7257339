#include "src/core/exec_plan.hpp"

#include <algorithm>
#include <string>

#include "src/cmsisnn/packed_kernels.hpp"  // kBatchLanes
#include "src/common/error.hpp"
#include "src/mcu/memory_model.hpp"
#include "src/nn/qkernels_ref.hpp"

namespace ataman {

namespace {

// q15 elements one image lane of a step's packed/unpacked kernel needs:
// one im2col patch (conv), the shared per-position tap expansion
// (depthwise) or the expanded input vector (fc).
int64_t step_scratch_elems(const OpDescriptor& d) {
  switch (d.kind) {
    case OpKind::kConv: return d.patch;
    case OpKind::kDepthwise: return static_cast<int64_t>(d.patch) * d.channels;
    case OpKind::kDense: return d.in_elems;
    default: return 0;
  }
}

// One call's working memory in a single allocation: the kernels' q15
// scratch, then the activation arena of the whole batch.
class Arena {
 public:
  Arena(const ExecPlan& plan, int batch)
      : scratch_elems_(static_cast<size_t>(plan.scratch_elems) *
                       (batch == 1 ? 1 : kBatchLanes)),
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

void run_steps(const ExecPlan& plan, Arena& arena, int batch, int first,
               const KernelTable& kernels) {
  for (size_t i = static_cast<size_t>(first); i < plan.steps.size(); ++i) {
    const ExecStep& s = plan.steps[i];
    StepIO io;
    io.in_a = arena.tensor(s.in[0]);
    if (s.in[1].id >= 0) io.in_b = arena.tensor(s.in[1]);
    io.out = arena.tensor(s.out);
    io.batch = batch;
    io.scratch = arena.scratch();
    kernels.run_step(s, io);
  }
}

}  // namespace

StepIO StepIO::image(int b) const {
  const auto slice = [&](auto span) {
    const size_t n = span.size() / static_cast<size_t>(batch);
    return span.subspan(static_cast<size_t>(b) * n, n);
  };
  return {slice(in_a), slice(in_b), slice(out), 1, scratch};
}

void run_step_ref(const QLayer& layer, const StepIO& io,
                  const uint8_t* skip) {
  for (int b = 0; b < io.batch; ++b) {
    const StepIO one = io.image(b);
    run_layer_ref(layer, one.in_a, one.in_b, one.out, skip);
  }
}

ExecPlan ExecPlan::compile(const QModel& model) {
  const ActivationPlan liveness = plan_activations(model);
  ExecPlan plan;
  plan.input = model.input;
  std::vector<int64_t> slot_offset(liveness.slot_elems.size());
  for (size_t s = 0; s < slot_offset.size(); ++s) {
    slot_offset[s] = plan.arena_elems;
    plan.arena_elems += liveness.slot_elems[s];
  }
  for (size_t t = 0; t < liveness.tensors.size(); ++t) {
    const ActivationPlan::Tensor& info = liveness.tensors[t];
    plan.tensors.push_back({static_cast<int>(t),
                            slot_offset[static_cast<size_t>(info.slot)],
                            info.elems});
  }

  int ordinal = 0;
  for (int l = 0; l < static_cast<int>(model.layers.size()); ++l) {
    const OpDescriptor d = describe_layer(model.layers[static_cast<size_t>(l)]);
    ExecStep step;
    step.kind = d.kind;
    step.layer = l;
    if (d.skippable) step.approx_ordinal = ordinal++;
    const std::vector<int> ins = model.inputs_of(l);
    for (size_t i = 0; i < ins.size(); ++i)
      step.in[i] = plan.tensors[static_cast<size_t>(ins[i])];
    step.out = plan.tensors[static_cast<size_t>(l) + 1];
    plan.scratch_elems = std::max(plan.scratch_elems, step_scratch_elems(d));
    plan.steps.push_back(step);
  }
  return plan;
}

std::vector<int8_t> ExecPlan::run(std::span<const uint8_t> image,
                                  const KernelTable& kernels) const {
  check(static_cast<int64_t>(image.size()) == tensors[0].elems,
        "input image size mismatch");
  Arena arena(*this, 1);
  quantize_pixels(input, image, arena.tensor(tensors[0]));
  run_steps(*this, arena, 1, 0, kernels);
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
    quantize_pixels(input, images[b], in.subspan(b * in_elems, in_elems));
  }
  run_steps(*this, arena, batch, 0, kernels);
  const size_t out_elems = static_cast<size_t>(tensors.back().elems);
  const std::span<const int8_t> out = arena.tensor(tensors.back());
  logits_out.resize(images.size());
  for (size_t b = 0; b < images.size(); ++b) {
    const auto image_out = out.subspan(b * out_elems, out_elems);
    logits_out[b].assign(image_out.begin(), image_out.end());
  }
}

std::vector<int8_t> ExecPlan::run_from(int first_step,
                                       std::span<const int8_t> activations,
                                       const KernelTable& kernels) const {
  check(first_step >= 0 && first_step <= static_cast<int>(steps.size()),
        "run_from layer index out of range");
  const PlanTensor& entry = tensors[static_cast<size_t>(first_step)];
  if (static_cast<int64_t>(activations.size()) != entry.elems)
    fail("run_from activation size mismatch at layer " +
         std::to_string(first_step));
  Arena arena(*this, 1);
  std::copy(activations.begin(), activations.end(),
            arena.tensor(entry).begin());
  run_steps(*this, arena, 1, first_step, kernels);
  const std::span<const int8_t> out = arena.tensor(tensors.back());
  return {out.begin(), out.end()};
}

}  // namespace ataman
