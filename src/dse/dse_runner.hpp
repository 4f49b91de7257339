// DSE driver: sweeps the configuration space in parallel (the paper ran
// its exhaustive exploration offline on 6 host threads), extracts the
// accuracy/MAC-reduction Pareto front (Fig. 2), and selects deployment
// configs for user accuracy-loss thresholds (Table II's 0%/5%/10%).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "src/dse/config_space.hpp"
#include "src/dse/evaluator.hpp"
#include "src/dse/pareto.hpp"

namespace ataman {

struct DseOutcome {
  std::vector<DseResult> results;  // results[0] is the all-exact config
  std::vector<int> pareto;         // indices into results (ascending x)
  double exact_accuracy = 0.0;     // accuracy of results[0]
  int64_t baseline_cycles = 0;     // packed exact engine cycles
  double wall_seconds = 0.0;
  int threads_used = 0;

  // Fast-sweep statistics (see docs/DSE.md). `cache_hits` counts
  // layer-segment executions served from the prefix cache instead of
  // being recomputed; `images_evaluated` is the total number of
  // per-config image inferences actually run (the exhaustive cost would
  // be results.size() x the eval budget); `early_exits` counts configs
  // whose reported accuracy is a partial sample because the Wilson test
  // abandoned them (always 0 with DseOptions::exact_sweep, and never
  // includes results[0] or a Pareto member — those are completed before
  // the outcome is returned).
  int64_t cache_hits = 0;
  int64_t images_evaluated = 0;
  int early_exits = 0;
};

using DseProgress = std::function<void(int done, int total)>;

// Sweep an explicit config list (configs[0] must be the all-exact
// baseline): static metrics per config from the evaluator, then every
// accuracy through the layer-prefix activation cache
// (src/dse/prefix_cache) with adaptive early exit by default.
// options.exact_sweep = true keeps the cache but evaluates every config
// on the full image budget, bitwise identical to per-config
// ConfigEvaluator::evaluate. A model with no approximable layer takes the
// same path: its cache is one stage with no rungs.
DseOutcome run_dse(const ConfigEvaluator& evaluator,
                   const std::vector<ApproxConfig>& configs,
                   const DseOptions& options,
                   const DseProgress& progress = nullptr);

// Latency-optimized design meeting `accuracy >= exact - max_loss`
// and fitting `flash_capacity` (bytes; <=0 disables the check).
// Early-exited results (DseResult::partial_eval) are never selected —
// their accuracies are partial samples. `max_stream_energy_mj` (<= 0
// disables) additionally caps the steady-state streaming
// energy-per-frame row; when active it rejects results without one
// (stream_energy_mj_per_frame <= 0 means the sweep did not model
// streaming — an unmodeled row must not pass an energy budget).
// Returns results index, or -1 when nothing qualifies.
int select_design(const DseOutcome& outcome, double max_accuracy_loss,
                  int64_t flash_capacity = 0,
                  double max_stream_energy_mj = 0.0);

}  // namespace ataman
