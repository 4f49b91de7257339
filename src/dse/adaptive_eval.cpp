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

AdaptiveSweepResult adaptive_accuracy_sweep(
    const PrefixCache& cache, const SweepStatics& statics,
    const DseOptions& options, const SweepProgress& progress) {
  const int n_cfg = cache.config_count();
  const int n_img = cache.eval_images();
  const std::vector<double>& mac_reduction = statics.mac_reduction;
  check(static_cast<int>(mac_reduction.size()) == n_cfg &&
            static_cast<int>(statics.cycles.size()) == n_cfg,
        "statics do not match config count");
  check(options.eval_block > 0, "eval_block must be positive");

  AdaptiveSweepResult out;
  out.accuracy.assign(static_cast<size_t>(n_cfg), 0.0);
  out.images_evaluated.assign(static_cast<size_t>(n_cfg), 0);

  std::vector<uint8_t> hits(static_cast<size_t>(n_cfg) * n_img, 0);
  std::vector<int64_t> correct(static_cast<size_t>(n_cfg), 0);
  // Per-config evaluation state: images [0, evaluated) are measured; a
  // config is pending while it still advances blockwise, done once it
  // has the full budget, and abandoned (neither) after an early exit.
  std::vector<uint8_t> pending(static_cast<size_t>(n_cfg), 1);
  std::vector<uint8_t> done(static_cast<size_t>(n_cfg), 0);
  std::vector<int> target(static_cast<size_t>(n_cfg), 0);

  // Advance every config to its target image count in one shared trie
  // walk, folding the new hit flags into the per-config counts (index
  // order, so totals are bitwise deterministic for any thread count).
  const auto advance = [&]() {
    std::vector<int> begin(static_cast<size_t>(n_cfg), 0);
    for (int c = 0; c < n_cfg; ++c)
      begin[static_cast<size_t>(c)] = out.images_evaluated[static_cast<size_t>(c)];
    const PrefixCacheStats st = cache.evaluate_ranges(begin, target, hits);
    out.cache_hits += st.segments_reused;
    for (int c = 0; c < n_cfg; ++c) {
      int64_t h = 0;
      for (int i = begin[static_cast<size_t>(c)];
           i < target[static_cast<size_t>(c)]; ++i)
        h += hits[static_cast<size_t>(c) * n_img + static_cast<size_t>(i)];
      correct[static_cast<size_t>(c)] += h;
      out.images_evaluated[static_cast<size_t>(c)] = std::max(
          out.images_evaluated[static_cast<size_t>(c)],
          target[static_cast<size_t>(c)]);
      if (out.images_evaluated[static_cast<size_t>(c)] == n_img)
        done[static_cast<size_t>(c)] = 1;
    }
  };
  const auto estimate = [&](int c) {
    const int n = out.images_evaluated[static_cast<size_t>(c)];
    return n > 0 ? static_cast<double>(correct[static_cast<size_t>(c)]) /
                       static_cast<double>(n)
                 : 0.0;
  };

  if (options.exact_sweep) {
    // Blockwise like the adaptive path (no exits), so long sweeps keep
    // reporting progress: configs-worth of images completed so far.
    for (int block_end = std::min(n_img, options.eval_block);;
         block_end = std::min(n_img, block_end + options.eval_block)) {
      target.assign(static_cast<size_t>(n_cfg), block_end);
      advance();
      if (progress)
        progress(static_cast<int>(static_cast<int64_t>(n_cfg) * block_end /
                                  n_img),
                 n_cfg);
      if (block_end == n_img) break;
    }
  } else {
    // Exit decisions compare configs sorted by descending reduction: a
    // config is abandoned when some config with >= reduction provably
    // (at the configured confidence) ends with higher accuracy.
    std::vector<int> by_red(static_cast<size_t>(n_cfg));
    for (int c = 0; c < n_cfg; ++c) by_red[static_cast<size_t>(c)] = c;
    std::sort(by_red.begin(), by_red.end(), [&](int a, int b) {
      if (mac_reduction[static_cast<size_t>(a)] !=
          mac_reduction[static_cast<size_t>(b)])
        return mac_reduction[static_cast<size_t>(a)] >
               mac_reduction[static_cast<size_t>(b)];
      return a < b;
    });

    std::vector<double> lb(static_cast<size_t>(n_cfg), 0.0);
    std::vector<double> ub(static_cast<size_t>(n_cfg), 1.0);
    for (int block_end = std::min(n_img, options.eval_block);;
         block_end = std::min(n_img, block_end + options.eval_block)) {
      for (int c = 0; c < n_cfg; ++c) {
        if (pending[static_cast<size_t>(c)] && !done[static_cast<size_t>(c)])
          target[static_cast<size_t>(c)] = block_end;
      }
      advance();
      if (block_end == n_img) break;

      // Project each pending config's final full-sample accuracy: the
      // evaluated hits are a fact; the unseen remainder is bounded by
      // the Wilson interval of the per-image hit probability. Done
      // configs are settled: their bounds are the measurement itself.
      for (int c = 0; c < n_cfg; ++c) {
        if (done[static_cast<size_t>(c)]) {
          lb[static_cast<size_t>(c)] = ub[static_cast<size_t>(c)] =
              estimate(c);
          continue;
        }
        if (!pending[static_cast<size_t>(c)]) continue;
        const int64_t h = correct[static_cast<size_t>(c)];
        const int64_t n = out.images_evaluated[static_cast<size_t>(c)];
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
      // reduction, pruned to the (lb max, cycles min) Pareto set). A
      // config exits only when some floor provably beats its accuracy
      // AND has no more cycles — so an abandoned config is irrelevant
      // both to the Fig. 2 front and to unconstrained select_design
      // (see SweepStatics for the binding-flash-capacity caveat).
      // Equal-reduction configs join the frontier before their group is
      // tested (they can dominate each other; self-domination is
      // impossible, lb <= ub).
      struct Floor {
        double lb;
        int64_t cycles;
      };
      std::vector<Floor> floors;
      const auto add_floor = [&](int c) {
        const Floor f{lb[static_cast<size_t>(c)],
                      statics.cycles[static_cast<size_t>(c)]};
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
        const double red = mac_reduction[static_cast<size_t>(by_red[g])];
        while (g_end < by_red.size() &&
               mac_reduction[static_cast<size_t>(by_red[g_end])] == red)
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
                f.cycles <= statics.cycles[static_cast<size_t>(c)]) {
              pending[static_cast<size_t>(c)] = 0;  // provably irrelevant
              break;
            }
          }
        }
        g = g_end;
      }

      if (progress) {
        int settled = 0;
        for (int c = 0; c < n_cfg; ++c)
          settled +=
              (pending[static_cast<size_t>(c)] && !done[static_cast<size_t>(c)])
                  ? 0
                  : 1;
        progress(settled, n_cfg);
      }
    }

    // Completion: every Pareto member of the reported accuracies must be
    // a full-sample measurement. Completing a member can reshape the
    // front, so iterate until it is stable (each round completes at
    // least one config, so this terminates).
    for (;;) {
      std::vector<ParetoPoint> points;
      points.reserve(static_cast<size_t>(n_cfg));
      for (int c = 0; c < n_cfg; ++c)
        points.push_back({mac_reduction[static_cast<size_t>(c)],
                          estimate(c), c});
      target.assign(static_cast<size_t>(n_cfg), 0);
      bool incomplete = false;
      for (const int c : pareto_front(points)) {
        if (out.images_evaluated[static_cast<size_t>(c)] == n_img) continue;
        target[static_cast<size_t>(c)] = n_img;
        incomplete = true;
      }
      if (!incomplete) break;
      advance();
    }
  }

  for (int c = 0; c < n_cfg; ++c) {
    const int n = out.images_evaluated[static_cast<size_t>(c)];
    out.accuracy[static_cast<size_t>(c)] = estimate(c);
    out.total_images += n;
    if (n < n_img) ++out.early_exits;
  }
  if (progress) progress(n_cfg, n_cfg);
  return out;
}

}  // namespace ataman
