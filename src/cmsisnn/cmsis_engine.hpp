// Full-model packed engine: the "exact baseline [2]" column of Table II,
// and — priced with the X-CUBE-AI list — its "X-CUBE-AI [8]" column.
//
// Executes the QModel's compiled plan with packed kernels (bit-exact with
// the reference engine) and produces the MCU deployment report — cycles
// from the cost model's price list, flash/RAM from the memory model. The
// per-layer cycle profile is the software analogue of the paper's kernel
// cycle counters (§II-A), which are "deactivated during runtime":
// profiling here is free because cycles are a pure function of the layer
// geometry.
#pragma once

#include <span>
#include <vector>

#include "src/cmsisnn/packed_kernels.hpp"
#include "src/core/engine_iface.hpp"
#include "src/core/exec_plan.hpp"
#include "src/mcu/cost_model.hpp"
#include "src/quant/qtypes.hpp"

namespace ataman {

// The packed kernel table: conv and fc on offline-packed weight streams,
// depthwise on the loop kernel, pools and adds on the reference kernels.
// The host kernels stream each packed conv weight pair once per
// kBatchLanes blocks of kPosBlock output columns (of any row or image); the
// priced cycles model the MCU's one-position stream. `unpacked` (by
// approximable ordinal, 1 = executed elsewhere) skips packing those conv
// streams — the hybrid unpacked engine's fallback table.
class PackedKernels final : public KernelTable {
 public:
  explicit PackedKernels(const QModel* model,
                         const std::vector<uint8_t>* unpacked = nullptr);

  void run_step(const ExecStep& step, const StepIO& io) const override;

 private:
  const QModel* model_;
  std::vector<PackedWeights> packed_;  // by layer index; empty if unused
};

class CmsisEngine : public InferenceEngine {
 public:
  // `prices` is kPacked (design "cmsis-nn") or kXCube: the X-CUBE-AI
  // comparator (registry key "xcube", design "x-cube-ai"). X-CUBE-AI is
  // an exact int8 library, so the same packed plan and kernels give its
  // numerics; only the price list and the flash/RAM formulas (weight
  // compression, a smaller runtime) differ.
  explicit CmsisEngine(const QModel* model,
                       PriceList prices = PriceList::kPacked);

  // Copies the offline-packed weight streams and the priced cost instead
  // of re-running the packing analysis.
  std::unique_ptr<InferenceEngine> clone() const override {
    return std::make_unique<CmsisEngine>(*this);
  }

 private:
  const KernelTable& kernels() const override { return kernels_; }

  PackedKernels kernels_;
};

}  // namespace ataman
