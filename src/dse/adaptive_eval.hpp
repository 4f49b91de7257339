// Adaptive early-exit accuracy evaluation for the DSE sweep.
//
// The sweep's accuracy axis only matters near the Pareto front: a config
// whose accuracy provably falls below every config with at least as much
// MAC reduction can never be a front member, so finishing its full image
// budget is wasted work. The adaptive sweep evaluates images in
// deterministic blocks and, at each block boundary, abandons configs
// whose Wilson-projected best-case final accuracy sits below the
// Wilson-projected worst-case accuracy of some config with >= reduction
// (minus a safety margin). Abandoned configs keep their partial-sample
// accuracy.
//
// Two hard guarantees (tests/test_dse_fast.cpp pins both):
//  * config 0 — the all-exact baseline — is never abandoned;
//  * every Pareto-front member of the returned accuracies is fully
//    evaluated: after the block loop, any front member with a partial
//    sample is completed and the front recomputed until it is stable.
//
// With exact_sweep = true the block loop degenerates to one full pass
// and the result is bitwise identical to the legacy per-config sweep.
// See docs/DSE.md for when fast-mode results can differ from it.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/dse/config_space.hpp"
#include "src/dse/prefix_cache.hpp"

namespace ataman {

// Wilson score interval for a binomial proportion with `hits` successes
// in `n` trials at z-score `z`; n == 0 yields the vacuous [0, 1].
double wilson_lower(int64_t hits, int64_t n, double z);
double wilson_upper(int64_t hits, int64_t n, double z);

struct AdaptiveSweepResult {
  std::vector<double> accuracy;       // per config; partial for early exits
  std::vector<int> images_evaluated;  // per config
  int64_t cache_hits = 0;             // prefix segments reused
  int64_t total_images = 0;           // sum of images_evaluated
  int early_exits = 0;                // configs left with a partial sample
};

using SweepProgress = std::function<void(int done, int total)>;

// Per-config static metrics the exit test needs (from the static
// evaluator). A config is only abandoned in favour of a dominator with
// >= MAC reduction AND <= cycles (and provably higher accuracy), so an
// abandoned config is irrelevant to the Fig. 2 front and to
// select_design at any accuracy-loss budget: whenever it would
// qualify, its dominator qualifies with <= cycles. The one deliberate
// exception is a *binding* flash capacity — a pruned config could have
// been a smaller-flash fallback; select_design never returns partial
// results (so no budget is ever violated), and flash-constrained
// selection should use DseOptions::exact_sweep.
struct SweepStatics {
  std::vector<double> mac_reduction;  // Fig. 2 x-axis, maximize
  std::vector<int64_t> cycles;        // selection objective, minimize
};

// Blockwise accuracy sweep over `cache`'s config space; config 0 must
// be the all-exact baseline. Reads the fast-sweep fields of `options`
// (exact_sweep, eval_block, exit_z, exit_margin). Deterministic for any
// thread count.
AdaptiveSweepResult adaptive_accuracy_sweep(
    const PrefixCache& cache, const SweepStatics& statics,
    const DseOptions& options, const SweepProgress& progress = nullptr);

}  // namespace ataman
