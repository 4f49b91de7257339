// Reference int8 inference engine.
//
// Runs a QModel image-by-image with the golden kernels under a skip mask
// (the DSE evaluates approximate configs through here — masking a product
// is numerically identical to omitting its instruction from unpacked
// code, which tests/test_unpack.cpp asserts). run(image, mask, tap) also
// hands each approximable layer's input to a ConvTap (via TapKernels,
// the one tap any kernel table takes).
//
// As an InferenceEngine it is the numerical oracle: every other backend
// must match its logits bit-exactly on exact configs. It models no MCU
// deployment, so its cycle/flash/RAM columns are zero ("not modeled").
#pragma once

#include <span>
#include <vector>

#include "src/core/engine_iface.hpp"
#include "src/core/exec_plan.hpp"
#include "src/data/dataset.hpp"
#include "src/nn/skip_mask.hpp"
#include "src/quant/qtypes.hpp"

namespace ataman {

// Reference kernel table: every step through the reference kernels,
// image by image, under `mask` (the skip row looked up by approximable
// ordinal at run time).
class RefKernels final : public KernelTable {
 public:
  RefKernels(const QModel* model, const SkipMask* mask)
      : model_(model), mask_(mask) {}

  void run_step(const ExecStep& step, const StepIO& io) const override;
  // Each skipped operand saves one MAC per output position.
  int64_t executed_macs(const ExecStep& step) const override;

 private:
  const QModel* model_;
  const SkipMask* mask_;
};

class RefEngine : public InferenceEngine {
 public:
  // `mask` (nullptr = exact) must outlive the engine.
  explicit RefEngine(const QModel* model, const SkipMask* mask = nullptr);

  // Copies the compiled plan; the model and mask stay shared.
  std::unique_ptr<InferenceEngine> clone() const override {
    return std::make_unique<RefEngine>(*this);
  }

  // Layer-boundary resume: `activations` is tensor `layer_begin` (the
  // int8 output of layer layer_begin-1; the network input for 0), and
  // layers [layer_begin, layers.size()) run under the engine's mask to
  // the final logits; `layer_begin == layers.size()` returns
  // `activations`. `layer_begin` must be a linear boundary
  // (QModel::linear_boundary), since one tensor must carry the whole
  // activation frontier.
  std::vector<int8_t> run_from(int layer_begin,
                               std::span<const int8_t> activations) const;

  // Full inference with an explicit mask; the optional conv-input tap
  // observes it through TapKernels.
  using InferenceEngine::run;
  std::vector<int8_t> run(std::span<const uint8_t> image,
                          const SkipMask* mask,
                          const ConvTap& tap = nullptr) const;

 private:
  const KernelTable& kernels() const override { return kernels_; }

  RefKernels kernels_;  // under the engine's mask
};

// Top-1 accuracy of `model` on up to `limit` images of `ds` (all if
// limit < 0; limit == 0 throws). Thin wrapper over the shared batched
// evaluator in src/core/eval — parallel over images, deterministic, and
// serial when called from inside an enclosing parallel region.
double evaluate_quantized_accuracy(const QModel& model, const Dataset& ds,
                                   const SkipMask* mask = nullptr,
                                   int limit = -1);

}  // namespace ataman
