// Full-model approximate engine: unpacked conv + depthwise layers (with
// optional significance skipping baked in), packed FC, reference
// pooling. This is the "Proposed (ours)" column of Table II.
//
// Hybrid deployments (see layer_selection.hpp) may keep individual
// approximable layers on the packed CMSIS-style kernel instead: pass an
// `unpack_selection` vector (one flag per approximable-layer ordinal).
// Packed layers execute exactly (skips only remove instructions from
// *unpacked* code), keep their weights in the flash data segment, and
// are costed with the packed kernel model.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/cmsisnn/cmsis_engine.hpp"
#include "src/core/engine_iface.hpp"
#include "src/core/exec_plan.hpp"
#include "src/mcu/cost_model.hpp"
#include "src/mcu/memory_model.hpp"
#include "src/nn/skip_mask.hpp"
#include "src/quant/qtypes.hpp"
#include "src/unpack/unpacked_layer.hpp"

namespace ataman {

class UnpackedEngine : public InferenceEngine, private KernelTable {
 public:
  // `mask` == nullptr -> exact unpacking (no skips).
  // `unpack_selection` == nullptr -> every approximable layer (conv +
  // depthwise) is unpacked (the paper's policy); otherwise one 0/1 flag
  // per approximable-layer ordinal.
  UnpackedEngine(const QModel* model, const SkipMask* mask = nullptr,
                 CortexM33CostTable costs = {}, MemoryCostTable memory = {},
                 const std::vector<uint8_t>* unpack_selection = nullptr);

  // Each unpacked channel program streams once per block of kPosBlock
  // output columns, and once per kBatchLanes images of a batch. Bitwise
  // identical to run() either way, and the priced cycles do not change.
  std::vector<int8_t> run(std::span<const uint8_t> image) const override {
    return plan_.run(image, *this);
  }
  void run_batch(std::span<const std::span<const uint8_t>> images,
                 std::vector<std::vector<int8_t>>& logits_out) const override {
    check_batch_nonempty(images);
    plan_.run_batch(images, *this, logits_out);
  }
  std::vector<int8_t> run_incremental(
      StreamState& state, std::span<const uint8_t> new_columns) const override {
    return plan_.run_incremental(state, new_columns, *this);
  }

  // Copies the unpacked channel programs / packed FC streams verbatim —
  // much cheaper than re-unpacking, which is why serve pools clone a
  // shared prototype per (mask, selection) instead of reconstructing.
  // The mask is baked into the programs at construction, so this engine
  // deliberately does NOT support rebind_mask().
  std::unique_ptr<InferenceEngine> clone() const override {
    return std::make_unique<UnpackedEngine>(*this);
  }

  int64_t total_cycles() const override { return total_cycles_; }
  // Executed (retained) conv/depthwise MACs + FC MACs per inference.
  int64_t executed_macs() const { return executed_macs_; }
  int64_t mac_ops() const override { return executed_macs_; }
  const std::vector<LayerProfile>& layer_profile() const override {
    return profile_;
  }
  int unpacked_conv_count() const;  // unpacked approximable layers

  FlashReport flash(const MemoryCostTable& t = {}) const {
    return unpacked_flash(model(), static_pairs_, static_singles_, t);
  }
  int64_t flash_bytes() const override { return flash(memory_).total_bytes; }
  int64_t ram_bytes() const override;

  using InferenceEngine::deploy;
  // As the interface deploy, but reported under `design_name` (e.g.
  // "ataman(5%)") instead of the engine default.
  DeployReport deploy(const Dataset& eval, const BoardSpec& board, int limit,
                      const std::string& design_name) const;

 private:
  // Kernel table: unpacked programs where they exist, the packed kernels
  // (FC, pools, adds, hybrid packed fallbacks) everywhere else.
  void run_step(const ExecStep& step, const StepIO& io) const override;
  // The profile row's MACs: retained operands on unpacked layers.
  int64_t executed_macs(const ExecStep& step) const override {
    return profile_[static_cast<size_t>(step.layer)].macs;
  }

  MemoryCostTable memory_;
  ExecPlan plan_;
  // By approximable ordinal: 1 = the layer runs its unpacked program.
  std::vector<uint8_t> unpacked_;
  // The unpacked program by approximable ordinal; empty when the hybrid
  // selection keeps the layer packed.
  std::vector<std::optional<UnpackedLayer>> programs_;
  PackedKernels packed_;
  // Retained static operands per approximable ordinal (-1 = packed), as
  // the cost and flash models read them.
  std::vector<int64_t> static_pairs_, static_singles_;
  std::vector<LayerProfile> profile_;
  int64_t total_cycles_ = 0;
  int64_t executed_macs_ = 0;
};

}  // namespace ataman
