// Flash-constrained hybrid deployment (extension of §II-B).
//
// The paper notes that "the length of the unpacked code is considered
// with respect to the available unused flash, creating an interesting
// trade-off", and always unpacks every conv layer (its models fit). This
// module generalizes that choice: each conv layer may independently stay
// on the packed CMSIS-style kernel (weights as data, loops) or become
// unpacked straight-line code (larger flash, skipping becomes real
// instruction removal). Selection maximizes cycle savings under a flash
// budget with a greedy benefit-per-byte knapsack, which also handles the
// case the all-unpack policy gets wrong: wide fast-path layers whose
// unpacked form is *slower* than the packed 2x2 SMLAD kernel stay packed
// unless aggressive skipping tips the balance.
#pragma once

#include <cstdint>
#include <vector>

#include "src/dse/evaluator.hpp"
#include "src/mcu/cost_model.hpp"
#include "src/mcu/memory_model.hpp"
#include "src/nn/skip_mask.hpp"
#include "src/quant/qtypes.hpp"

namespace ataman {

struct LayerDeployChoice {
  bool unpack = true;
  int64_t packed_cycles = 0;     // exact packed kernel (skips are free-of-
                                 // charge impossible there)
  int64_t unpacked_cycles = 0;   // with the mask's skips applied
  int64_t packed_flash = 0;      // weights + descriptor bytes
  int64_t unpacked_flash = 0;    // straight-line code bytes + bias data
};

struct HybridPlan {
  // One entry per approximable-layer (conv + depthwise) ordinal.
  std::vector<LayerDeployChoice> choices;

  std::vector<uint8_t> unpack_selection() const;
  int64_t total_cycle_saving() const;  // vs all-packed
  int unpacked_count() const;
};

// Evaluate both deployment options per approximable layer under `mask`.
HybridPlan analyze_layer_choices(const QModel& model, const SkipMask& mask);

// Greedy knapsack: unpack layers in descending cycles-saved-per-extra-
// flash-byte order while the *total model flash* stays within
// `flash_budget` bytes (<= 0: unlimited). Layers whose unpacked form
// saves cycles AND flash are always taken; layers that lose cycles are
// never taken.
HybridPlan select_layers_to_unpack(const QModel& model, const SkipMask& mask,
                                   int64_t flash_budget);

}  // namespace ataman
