// From significance to skip masks.
//
// An ApproxConfig assigns each approximable layer (conv + depthwise, in
// ordinal order) a threshold tau (tau < 0 means the layer is left
// exact); make_skip_mask() marks every product with S_i <= tau as
// skipped (Eq. (3)). Because S is static, skip sets are nested in tau —
// skip(tau1) ⊆ skip(tau2) for tau1 <= tau2 — which the DSE sweep and
// its tests rely on.
#pragma once

#include <string>
#include <vector>

#include "src/common/json_lite.hpp"
#include "src/nn/skip_mask.hpp"
#include "src/sig/significance.hpp"

namespace ataman {

struct ApproxConfig {
  // One entry per approximable-layer ordinal; tau < 0 -> layer stays
  // exact.
  std::vector<double> tau;

  bool approximates_anything() const;
  std::string to_string() const;

  Json to_json() const;

  // All-exact config for a model with `approx_count` approximable layers.
  static ApproxConfig exact(int approx_count);
  // Same tau for every approximable layer.
  static ApproxConfig uniform(int approx_count, double tau);
};

SkipMask make_skip_mask(const QModel& model,
                        const std::vector<LayerSignificance>& significance,
                        const ApproxConfig& config);

}  // namespace ataman
