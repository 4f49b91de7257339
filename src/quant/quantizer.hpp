// Post-training quantizer: float Network -> int8 QModel.
//
// Mirrors the paper's deployment flow ("8-bit post-training quantization",
// §II-A) with the TFLite-Micro weight refinement: conv/depthwise weights
// symmetric per-output-channel (dense stays per-tensor), activations
// asymmetric per-tensor calibrated on a small dataset subset, ReLU folded
// into the conv/fc output clamp, biases int32 at in_scale * w_scales[c].
#pragma once

#include "src/data/dataset.hpp"
#include "src/quant/qtypes.hpp"
#include "src/train/network.hpp"

namespace ataman {

struct QuantizerConfig {
  int calibration_images = 256;
  // Tail mass clipped per side when deriving activation ranges.
  double clip_quantile = 0.002;
  // Per-output-channel weight scales for conv/depthwise (TFLite-Micro
  // int8 convention). false restores the paper's per-tensor setup: one
  // shared max-abs scale broadcast across channels — the ablation mode
  // (bench/ablation_per_channel) and the scheme of pre-PR-9 artifacts.
  bool per_channel_weights = true;
};

// Calibrates on the first `calibration_images` of `calib` and quantizes.
QModel quantize_model(Network& net, const Dataset& calib,
                      const QuantizerConfig& config = {});

}  // namespace ataman
