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
                 const std::vector<uint8_t>* unpack_selection = nullptr);

  // Copies the unpacked channel programs / packed FC streams verbatim —
  // much cheaper than re-unpacking, which is why serve pools clone a
  // shared prototype per (mask, selection) instead of reconstructing.
  std::unique_ptr<InferenceEngine> clone() const override {
    return std::make_unique<UnpackedEngine>(*this);
  }

  int unpacked_conv_count() const;  // unpacked approximable layers

  FlashReport flash() const {
    return unpacked_flash(model(), static_pairs_, static_singles_);
  }

 private:
  // Kernel table: unpacked programs where they exist, the packed kernels
  // (FC, pools, adds, hybrid packed fallbacks) everywhere else. Each
  // unpacked channel program streams once per kBatchLanes blocks of
  // kPosBlock output columns (of any row or image); the priced
  // cycles model the MCU's one-position stream.
  const KernelTable& kernels() const override { return *this; }
  void run_step(const ExecStep& step, const StepIO& io) const override;
  // The profile row's MACs: retained operands on unpacked layers.
  int64_t executed_macs(const ExecStep& step) const override {
    return price_.rows[static_cast<size_t>(step.layer)].macs;
  }

  // By approximable ordinal: 1 = the layer runs its unpacked program.
  std::vector<uint8_t> unpacked_;
  // The unpacked program by approximable ordinal; empty when the hybrid
  // selection keeps the layer packed.
  std::vector<std::optional<UnpackedLayer>> programs_;
  PackedKernels packed_;
  // Retained static operands per approximable ordinal (-1 = packed), as
  // the cost and flash models read them.
  std::vector<int64_t> static_pairs_, static_singles_;
};

}  // namespace ataman
