#include "src/dse/adaptive_eval.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/error.hpp"
#include "src/dse/pareto.hpp"

namespace ataman {

namespace {

double wilson_center_half(int64_t hits, int64_t n, double z, int sign) {
  const double p = static_cast<double>(hits) / static_cast<double>(n);
  const double nn = static_cast<double>(n);
  const double z2 = z * z;
  const double denom = 1.0 + z2 / nn;
  const double center = p + z2 / (2.0 * nn);
  const double half =
      z * std::sqrt(p * (1.0 - p) / nn + z2 / (4.0 * nn * nn));
  return (center + sign * half) / denom;
}

}  // namespace

double wilson_lower(int64_t hits, int64_t n, double z) {
  if (n <= 0) return 0.0;
  return std::max(0.0, wilson_center_half(hits, n, z, -1));
}

double wilson_upper(int64_t hits, int64_t n, double z) {
  if (n <= 0) return 1.0;
  return std::min(1.0, wilson_center_half(hits, n, z, +1));
}

void adaptive_accuracy_sweep(const PrefixCache& cache,
                             const DseOptions& options,
                             const DseProgress& progress,
                             DseOutcome& outcome) {
  const int n_cfg = cache.config_count();
  const int n_img = cache.eval_images();
  std::vector<DseResult>& results = outcome.results;
  check(static_cast<int>(results.size()) == n_cfg,
        "results do not match config count");
  check(options.eval_block > 0, "eval_block must be positive");
  const auto reduction = [&](int c) {
    return results[static_cast<size_t>(c)].conv_mac_reduction;
  };
  const auto cycles = [&](int c) {
    return results[static_cast<size_t>(c)].cycles;
  };

  std::vector<uint8_t> hits(static_cast<size_t>(n_cfg) * n_img, 0);
  std::vector<int64_t> correct(static_cast<size_t>(n_cfg), 0);
  // Per-config evaluation state: images [0, evaluated) are measured; a
  // config is pending while it still advances blockwise, done once it
  // has the full budget, and abandoned (neither) after an early exit.
  std::vector<int> evaluated(static_cast<size_t>(n_cfg), 0);
  std::vector<uint8_t> pending(static_cast<size_t>(n_cfg), 1);
  std::vector<uint8_t> done(static_cast<size_t>(n_cfg), 0);
  std::vector<int> target(static_cast<size_t>(n_cfg), 0);
  outcome.cache_hits = 0;

  // Advance every config to its target image count in one shared trie
  // walk, folding the new hit flags into the per-config counts (index
  // order, so totals are bitwise deterministic for any thread count).
  const auto advance = [&]() {
    const std::vector<int> begin = evaluated;
    const PrefixCacheStats st = cache.evaluate_ranges(begin, target, hits);
    outcome.cache_hits += st.segments_reused;
    for (int c = 0; c < n_cfg; ++c) {
      int64_t h = 0;
      for (int i = begin[static_cast<size_t>(c)];
           i < target[static_cast<size_t>(c)]; ++i)
        h += hits[static_cast<size_t>(c) * n_img + static_cast<size_t>(i)];
      correct[static_cast<size_t>(c)] += h;
      evaluated[static_cast<size_t>(c)] = std::max(
          evaluated[static_cast<size_t>(c)], target[static_cast<size_t>(c)]);
      if (evaluated[static_cast<size_t>(c)] == n_img)
        done[static_cast<size_t>(c)] = 1;
    }
  };
  const auto estimate = [&](int c) {
    const int n = evaluated[static_cast<size_t>(c)];
    return n > 0 ? static_cast<double>(correct[static_cast<size_t>(c)]) /
                       static_cast<double>(n)
                 : 0.0;
  };

  // Exit decisions compare configs sorted by descending reduction: a
  // config is abandoned when some config with >= reduction provably (at
  // the configured confidence) ends with higher accuracy.
  std::vector<int> by_red(static_cast<size_t>(n_cfg));
  for (int c = 0; c < n_cfg; ++c) by_red[static_cast<size_t>(c)] = c;
  std::sort(by_red.begin(), by_red.end(), [&](int a, int b) {
    if (reduction(a) != reduction(b)) return reduction(a) > reduction(b);
    return a < b;
  });
  std::vector<double> lb(static_cast<size_t>(n_cfg), 0.0);
  std::vector<double> ub(static_cast<size_t>(n_cfg), 1.0);
  const auto exit_test = [&]() {
    // Project each pending config's final full-sample accuracy: the
    // evaluated hits are a fact; the unseen remainder is bounded by the
    // Wilson interval of the per-image hit probability. Done configs are
    // settled: their bounds are the measurement itself.
    for (int c = 0; c < n_cfg; ++c) {
      if (done[static_cast<size_t>(c)]) {
        lb[static_cast<size_t>(c)] = ub[static_cast<size_t>(c)] = estimate(c);
        continue;
      }
      if (!pending[static_cast<size_t>(c)]) continue;
      const int64_t h = correct[static_cast<size_t>(c)];
      const int64_t n = evaluated[static_cast<size_t>(c)];
      const int64_t rest = n_img - n;
      lb[static_cast<size_t>(c)] =
          (static_cast<double>(h) +
           wilson_lower(h, n, options.exit_z) * static_cast<double>(rest)) /
          static_cast<double>(n_img);
      ub[static_cast<size_t>(c)] =
          (static_cast<double>(h) +
           wilson_upper(h, n, options.exit_z) * static_cast<double>(rest)) /
          static_cast<double>(n_img);
    }

    // Walk groups of equal reduction in descending order, keeping a
    // frontier of floor candidates seen so far (live configs with >=
    // reduction, pruned to the (lb max, cycles min) Pareto set). A config
    // exits only when some floor provably beats its accuracy AND has no
    // more cycles — so an abandoned config is irrelevant both to the
    // Fig. 2 front and to unconstrained select_design (see the header for
    // the binding-flash-capacity caveat). Equal-reduction configs join
    // the frontier before their group is tested (they can dominate each
    // other; self-domination is impossible, lb <= ub).
    struct Floor {
      double lb;
      int64_t cycles;
    };
    std::vector<Floor> floors;
    const auto add_floor = [&](int c) {
      const Floor f{lb[static_cast<size_t>(c)], cycles(c)};
      for (const Floor& e : floors) {
        if (e.lb >= f.lb && e.cycles <= f.cycles)
          return;  // an existing floor is at least as strong everywhere
      }
      std::erase_if(floors, [&](const Floor& e) {
        return f.lb >= e.lb && f.cycles <= e.cycles;
      });
      floors.push_back(f);
    };
    size_t g = 0;
    while (g < by_red.size()) {
      size_t g_end = g;
      const double red = reduction(by_red[g]);
      while (g_end < by_red.size() && reduction(by_red[g_end]) == red)
        ++g_end;
      for (size_t p = g; p < g_end; ++p) {
        const int c = by_red[p];
        if (pending[static_cast<size_t>(c)] || done[static_cast<size_t>(c)])
          add_floor(c);
      }
      for (size_t p = g; p < g_end; ++p) {
        const int c = by_red[p];
        if (c == 0 || done[static_cast<size_t>(c)] ||
            !pending[static_cast<size_t>(c)])
          continue;
        for (const Floor& f : floors) {
          if (f.lb > ub[static_cast<size_t>(c)] + options.exit_margin &&
              f.cycles <= cycles(c)) {
            pending[static_cast<size_t>(c)] = 0;  // provably irrelevant
            break;
          }
        }
      }
      g = g_end;
    }
  };

  for (int block_end = std::min(n_img, options.eval_block);;
       block_end = std::min(n_img, block_end + options.eval_block)) {
    for (int c = 0; c < n_cfg; ++c) {
      if (pending[static_cast<size_t>(c)] && !done[static_cast<size_t>(c)])
        target[static_cast<size_t>(c)] = block_end;
    }
    advance();
    if (block_end == n_img) break;
    if (!options.exact_sweep) exit_test();
    if (progress) {
      // Abandoned configs count whole; done ones have every image.
      int64_t settled = 0;
      for (int c = 0; c < n_cfg; ++c)
        settled += pending[static_cast<size_t>(c)]
                       ? evaluated[static_cast<size_t>(c)]
                       : n_img;
      progress(static_cast<int>(settled / n_img), n_cfg);
    }
  }

  // Completion: every Pareto member of the reported accuracies must be a
  // full-sample measurement. Completing a member can reshape the front,
  // so iterate until it is stable (each round completes at least one
  // config, so this terminates). An exact sweep has nothing to complete.
  for (;;) {
    std::vector<ParetoPoint> points;
    points.reserve(static_cast<size_t>(n_cfg));
    for (int c = 0; c < n_cfg; ++c)
      points.push_back({reduction(c), estimate(c), c});
    target.assign(static_cast<size_t>(n_cfg), 0);
    bool incomplete = false;
    for (const int c : pareto_front(points)) {
      if (evaluated[static_cast<size_t>(c)] == n_img) continue;
      target[static_cast<size_t>(c)] = n_img;
      incomplete = true;
    }
    if (!incomplete) break;
    advance();
  }

  outcome.images_evaluated = 0;
  outcome.early_exits = 0;
  for (int c = 0; c < n_cfg; ++c) {
    DseResult& r = results[static_cast<size_t>(c)];
    const int n = evaluated[static_cast<size_t>(c)];
    r.accuracy = estimate(c);
    r.partial_eval = n < n_img;
    outcome.images_evaluated += n;
    if (r.partial_eval) ++outcome.early_exits;
  }
  if (progress) progress(n_cfg, n_cfg);
}

}  // namespace ataman
