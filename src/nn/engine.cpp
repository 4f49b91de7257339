#include "src/nn/engine.hpp"

#include <algorithm>

#include "src/core/eval.hpp"

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

  // Each skipped operand saves one MAC per output position.
  int64_t executed_macs(const ExecStep& step) const override {
    const uint8_t* skip = mask_ != nullptr && step.approx_ordinal >= 0
                              ? mask_->row(step.approx_ordinal)
                              : nullptr;
    if (skip == nullptr) return step.macs;
    const OpDescriptor op =
        describe_layer(model_.layers[static_cast<size_t>(step.layer)]);
    return step.macs - std::count_if(skip,
                                     skip + op.skippable_operand_count(),
                                     [](uint8_t v) { return v != 0; }) *
                           op.positions;
  }

 private:
  const QModel& model_;
  const SkipMask* mask_;
  const ConvTap* tap_;
};

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
  const int layer_count = static_cast<int>(model().layers.size());
  check(layer_begin >= 0 && layer_begin <= layer_count,
        "run_from layer index out of range");
  if (!model().linear_boundary(layer_begin))
    fail("run_from must resume at a linear boundary of the DAG (layer " +
         std::to_string(layer_begin) + " is crossed by a skip edge)");
  if (default_mask_ != nullptr) default_mask_->validate(model());
  return plan_.run_range(layer_begin, layer_count, activations,
                         RefKernels(model(), default_mask_, nullptr));
}

std::vector<int8_t> RefEngine::run_incremental(
    StreamState& state, std::span<const uint8_t> new_columns) const {
  if (default_mask_ != nullptr) default_mask_->validate(model());
  check(!state.started() || state.bound_mask == default_mask_,
        "run_incremental: mask changed mid-session — a streaming session "
        "is one fixed configuration (open a new session to switch)");
  state.bound_mask = default_mask_;
  return plan_.run_incremental(state, new_columns,
                               RefKernels(model(), default_mask_, nullptr));
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
