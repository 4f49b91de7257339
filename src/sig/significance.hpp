// Significance calculation — Eq. (2) of the paper.
//
//   S_i = | E[a_i] * w_i  /  sum_j E[a_j] * w_j |          (per channel)
//
// measures the long-term expected contribution of product i to its
// channel accumulation Sum_c. When the channel's expected sum is zero
// ("the vast minority of cases"), every product is considered maximally
// significant and is retained, per the paper's rule.
//
// NOTE on the paper's Eq.(3)/prose mismatch: §II-C's prose says products
// with S_i <= tau are "incorporated", but Eq. (3) *subtracts* exactly
// those products, and the stated motivation (skip the insignificant) only
// matches Eq. (3). We follow Eq. (3): products with S_i <= tau are
// SKIPPED. See docs/DESIGN.md.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "src/sig/act_stats.hpp"

namespace ataman {

struct LayerSignificance {
  int out_c = 0;  // per-channel programs (depthwise: channels)
  int patch = 0;  // skippable operands per channel (depthwise: k*k)
  // S[oc * patch + i]; +infinity encodes "always retain" (zero-sum rule).
  std::vector<float> S;
  // Per channel, operand indices sorted by ascending S (ties by index):
  // the tau sweep walks prefixes of this order, which also proves the
  // skip-set nesting property the DSE relies on.
  std::vector<std::vector<uint32_t>> ascending;

  float significance(int oc, int operand) const {
    return S[static_cast<size_t>(oc) * patch + operand];
  }
};

// Compute Eq. (2) for one conv layer from captured input statistics.
LayerSignificance compute_significance(const QConv2D& layer,
                                       const ConvInputStats& stats);

// Eq. (2) for one depthwise layer: channel ch's expected sum runs over
// its k*k taps only; S is indexed ch * patch + tap, mirroring the skip
// mask's depthwise operand order.
LayerSignificance compute_significance(const QDepthwiseConv2D& layer,
                                       const ConvInputStats& stats);

// All approximable (conv + depthwise) layers of a model (ordinal order).
std::vector<LayerSignificance> compute_model_significance(
    const QModel& model, const std::vector<ConvInputStats>& stats);

constexpr float kAlwaysRetain = std::numeric_limits<float>::infinity();

// The skip rule of Eq. (3): an operand of significance `s` is skipped at
// threshold `tau` iff tau >= 0 and s <= (float)tau, compared in float as
// S is stored. kAlwaysRetain never satisfies it; tau < 0 skips nothing.
inline bool skips(float s, double tau) {
  return tau >= 0.0 && s <= static_cast<float>(tau);
}

}  // namespace ataman
