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
// With exact_sweep = true the exit test is off: every config advances
// block by block to the full budget, the completion step finds nothing to
// do, and the result is bitwise identical to the per-config sweep
// (ConfigEvaluator::evaluate). See docs/DSE.md for when fast-mode results
// can differ from it.
#pragma once

#include <cstdint>

#include "src/dse/config_space.hpp"
#include "src/dse/dse_runner.hpp"
#include "src/dse/prefix_cache.hpp"

namespace ataman {

// Wilson score interval for a binomial proportion with `hits` successes
// in `n` trials at z-score `z`; n == 0 yields the vacuous [0, 1].
double wilson_lower(int64_t hits, int64_t n, double z);
double wilson_upper(int64_t hits, int64_t n, double z);

// Blockwise accuracy sweep over `cache`'s config space, in place on
// `outcome`, whose results already hold every config's static metrics
// (ConfigEvaluator::evaluate_static); config 0 must be the all-exact
// baseline. Writes each result's accuracy and partial_eval and the
// outcome's cache_hits, images_evaluated and early_exits. Reads the
// fast-sweep fields of `options` (exact_sweep, eval_block, exit_z,
// exit_margin). Deterministic for any thread count.
//
// A config is only abandoned in favour of a dominator with >= MAC
// reduction AND <= cycles (and provably higher accuracy), so an
// abandoned config is irrelevant to the Fig. 2 front and to
// select_design at any accuracy-loss budget: whenever it would qualify,
// its dominator qualifies with <= cycles. The one deliberate exception
// is a *binding* flash capacity — a pruned config could have been a
// smaller-flash fallback; select_design never returns partial results
// (so no budget is ever violated), and flash-constrained selection
// should use DseOptions::exact_sweep.
//
// `progress` gets (done, total) after every block but the last and once
// at the end. `total` is the config count; `done` counts configs' worth
// of settled images (a config with its full budget or an early exit
// counts whole, a pending one by the share it has evaluated), so it
// never decreases and an exact sweep moves block by block. The last
// call is (total, total).
void adaptive_accuracy_sweep(const PrefixCache& cache,
                             const DseOptions& options,
                             const DseProgress& progress,
                             DseOutcome& outcome);

}  // namespace ataman
