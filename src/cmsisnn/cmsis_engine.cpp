#include "src/cmsisnn/cmsis_engine.hpp"

#include <cmath>

#include "src/common/error.hpp"
#include "src/mcu/memory_model.hpp"

namespace ataman {

PackedKernels::PackedKernels(const QModel* model,
                             const std::vector<uint8_t>* unpacked)
    : model_(model), packed_(model->layers.size()) {
  int ordinal = 0;
  for (size_t l = 0; l < model->layers.size(); ++l) {
    const QLayer& layer = model->layers[l];
    if (const auto* conv = std::get_if<QConv2D>(&layer)) {
      const bool elsewhere =
          unpacked != nullptr && (*unpacked)[static_cast<size_t>(ordinal)];
      if (!elsewhere) {
        packed_[l] = PackedWeights::pack(conv->weights, conv->geom.out_c,
                                         conv->geom.patch_size());
      }
    } else if (const auto* fc = std::get_if<QDense>(&layer)) {
      packed_[l] = PackedWeights::pack(fc->weights, fc->out_dim, fc->in_dim);
    }
    if (describe_layer(layer).skippable) ++ordinal;
  }
}

void PackedKernels::run_step(const ExecStep& step, const StepIO& io) const {
  const QLayer& layer = model_->layers[static_cast<size_t>(step.layer)];
  const PackedWeights& w = packed_[static_cast<size_t>(step.layer)];
  if (const auto* conv = std::get_if<QConv2D>(&layer)) {
    packed_conv2d(*conv, w, io.in_a, io.out, io.batch, io.scratch, io.cols);
  } else if (const auto* dw = std::get_if<QDepthwiseConv2D>(&layer)) {
    packed_depthwise_conv2d(*dw, io.in_a, io.out, io.batch, io.scratch,
                            io.cols);
  } else if (const auto* fc = std::get_if<QDense>(&layer)) {
    packed_dense(*fc, w, io.in_a, io.out, io.batch, io.scratch);
  } else {
    run_step_ref(layer, io);  // pools and adds: no weights to pack
  }
}

CmsisEngine::CmsisEngine(const QModel* model, PriceList prices)
    : InferenceEngine(model, nullptr,
                      prices == PriceList::kXCube ? "x-cube-ai" : "cmsis-nn"),
      kernels_(model) {
  check(prices != PriceList::kUnpacked,
        "CmsisEngine prices the packed or X-CUBE-AI list");
  price_ = price_model(*model, prices);
  if (prices == PriceList::kXCube) {
    flash_bytes_ = kXCubeCosts.runtime_code +
                   static_cast<int64_t>(std::llround(
                       kXCubeCosts.weight_compression *
                       static_cast<double>(model->weight_bytes())));
    ram_bytes_ = model_ram_bytes(*model, /*packed_engine=*/true,
                                 kXCubeCosts.ram_runtime_reserve);
  } else {
    flash_bytes_ = packed_flash(*model).total_bytes;
    ram_bytes_ = model_ram_bytes(*model, /*packed_engine=*/true,
                                 kMemoryCosts.runtime_reserve);
  }
}

}  // namespace ataman
