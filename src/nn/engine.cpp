#include "src/nn/engine.hpp"

#include <algorithm>

#include "src/core/eval.hpp"

namespace ataman {

void RefKernels::run_step(const ExecStep& step, const StepIO& io) const {
  const QLayer& layer = model_->layers[static_cast<size_t>(step.layer)];
  const uint8_t* skip = nullptr;
  if (step.approx_ordinal >= 0 && mask_ != nullptr)
    skip = mask_->row(step.approx_ordinal);
  run_step_ref(layer, io, skip);
}

int64_t RefKernels::executed_macs(const ExecStep& step) const {
  const uint8_t* skip = mask_ != nullptr && step.approx_ordinal >= 0
                            ? mask_->row(step.approx_ordinal)
                            : nullptr;
  if (skip == nullptr) return step.macs;
  const OpDescriptor op =
      describe_layer(model_->layers[static_cast<size_t>(step.layer)]);
  return step.macs - std::count_if(skip, skip + op.skippable_operand_count(),
                                   [](uint8_t v) { return v != 0; }) *
                         op.positions;
}

RefEngine::RefEngine(const QModel* model, const SkipMask* mask)
    : InferenceEngine(model, mask, "ref"), kernels_(model, mask) {}

std::vector<int8_t> RefEngine::run(std::span<const uint8_t> image,
                                   const SkipMask* mask,
                                   const ConvTap& tap) const {
  if (mask != nullptr) mask->validate(model());
  return plan().run(image,
                    TapKernels(model(), RefKernels(&model(), mask), tap));
}

std::vector<int8_t> RefEngine::run_from(
    int layer_begin, std::span<const int8_t> activations) const {
  const int layer_count = static_cast<int>(model().layers.size());
  check(layer_begin >= 0 && layer_begin <= layer_count,
        "run_from layer index out of range");
  if (!model().linear_boundary(layer_begin))
    fail("run_from must resume at a linear boundary of the DAG (layer " +
         std::to_string(layer_begin) + " is crossed by a skip edge)");
  return plan().run_range(layer_begin, layer_count, activations, kernels_);
}

double evaluate_quantized_accuracy(const QModel& model, const Dataset& ds,
                                   const SkipMask* mask, int limit) {
  const RefEngine engine(&model, mask);
  // Engine overload: evaluation proceeds through run_batch, so each
  // layer's weights stream once per sub-batch instead of once per image.
  return evaluate_batch(engine, ds, limit).top1;
}

}  // namespace ataman
