// Reference int8 inference engine.
//
// Runs a QModel image-by-image with the golden kernels. Supports
//   * skip masks (the DSE evaluates approximate configs through here —
//     masking a product is numerically identical to omitting its
//     instruction from unpacked code, which tests/test_unpack.cpp asserts)
//   * conv-input taps (the significance analysis captures activation
//     statistics through these).
//
// As an InferenceEngine it is the numerical oracle: every other backend
// must match its logits bit-exactly on exact configs. It models no MCU
// deployment, so its cycle/flash/RAM columns are zero ("not modeled").
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "src/core/engine_iface.hpp"
#include "src/core/exec_plan.hpp"
#include "src/data/dataset.hpp"
#include "src/nn/skip_mask.hpp"
#include "src/quant/qtypes.hpp"

namespace ataman {

// Called before each approximable (conv/depthwise) layer executes:
// (approx_ordinal, layer, input). The layer is passed as the QLayer
// variant so statistics capture handles every approximable kind through
// one hook.
using ConvTap =
    std::function<void(int, const QLayer&, std::span<const int8_t>)>;

class RefEngine : public InferenceEngine {
 public:
  explicit RefEngine(const QModel* model);

  // Mask applied by the virtual run/classify when none is passed
  // explicitly (how the registry binds a mask to a "ref" engine).
  // `mask` must outlive the engine; nullptr unbinds.
  void bind_mask(const SkipMask* mask) { default_mask_ = mask; }

  // The mask lives in run-time state only, so one instance serves any
  // number of approximate configs (serve pools rebind per micro-batch).
  bool supports_mask_rebind() const override { return true; }
  void rebind_mask(const SkipMask* mask) override { bind_mask(mask); }

  // Copies the compiled plan; the model and mask stay shared.
  std::unique_ptr<InferenceEngine> clone() const override {
    return std::make_unique<RefEngine>(*this);
  }

  // InferenceEngine: exact (or bound-mask) inference.
  std::vector<int8_t> run(std::span<const uint8_t> image) const override;
  using InferenceEngine::classify;

  // The plan walk over the whole batch under the bound mask: each layer
  // runs over every image before the next one starts, so its weights
  // stay hot across the batch instead of being re-streamed per image.
  void run_batch(std::span<const std::span<const uint8_t>> images,
                 std::vector<std::vector<int8_t>>& logits_out) const override;

  int64_t total_cycles() const override { return 0; }  // not modeled
  int64_t mac_ops() const override;  // executed MACs under the bound mask
  int64_t flash_bytes() const override { return 0; }
  int64_t ram_bytes() const override { return 0; }

  // Layer-boundary resume: `activations` is tensor `layer_begin` (the
  // int8 output of layer layer_begin-1; the network input for 0), and
  // layers [layer_begin, layers.size()) run under the bound mask to the
  // final logits; `layer_begin == layers.size()` returns `activations`.
  // `layer_begin` must be a linear boundary (QModel::linear_boundary),
  // since one tensor must carry the whole activation frontier.
  std::vector<int8_t> run_from(int layer_begin,
                               std::span<const int8_t> activations) const;

  // Streaming frames through the plan's streaming walker under the bound
  // mask; the mask identity is pinned by the session's first frame. See
  // InferenceEngine::run_incremental.
  std::vector<int8_t> run_incremental(
      StreamState& state,
      std::span<const uint8_t> new_columns) const override;

  // Full inference with an explicit mask and optional conv-input tap.
  std::vector<int8_t> run(std::span<const uint8_t> image,
                          const SkipMask* mask,
                          const ConvTap& tap = nullptr) const;

  int classify(std::span<const uint8_t> image, const SkipMask* mask) const;

 private:
  // The compiled plan every entry point walks.
  ExecPlan plan_;
  const SkipMask* default_mask_ = nullptr;
};

// Top-1 accuracy of `model` on up to `limit` images of `ds` (all if
// limit < 0; limit == 0 throws). Thin wrapper over the shared batched
// evaluator in src/core/eval — parallel over images, deterministic, and
// serial when called from inside an enclosing parallel region.
double evaluate_quantized_accuracy(const QModel& model, const Dataset& ds,
                                   const SkipMask* mask = nullptr,
                                   int limit = -1);

}  // namespace ataman
