#include "src/dse/dse_runner.hpp"

#include <atomic>

#include "src/common/error.hpp"
#include "src/common/parallel.hpp"
#include "src/common/stopwatch.hpp"
#include "src/core/eval.hpp"
#include "src/dse/adaptive_eval.hpp"
#include "src/dse/prefix_cache.hpp"

namespace ataman {

DseOutcome run_dse(const ConfigEvaluator& evaluator,
                   const std::vector<ApproxConfig>& configs,
                   const DseOptions& options, const DseProgress& progress) {
  check(!configs.empty(), "no configurations to evaluate");
  check(!configs.front().approximates_anything(),
        "configs[0] must be the exact baseline");

  Stopwatch watch;
  DseOutcome outcome;
  outcome.results.resize(configs.size());
  outcome.threads_used = num_threads();

  // The prefix cache needs a trie of at least one approximable layer;
  // the degenerate space of a model without one keeps the per-config
  // sweep.
  if (evaluator.model().approx_layer_count() > 0) {
    parallel_for(0, static_cast<int64_t>(configs.size()), [&](int64_t i) {
      outcome.results[static_cast<size_t>(i)] =
          evaluator.evaluate_static(configs[static_cast<size_t>(i)]);
    });
    const PrefixCache cache(&evaluator.model(), &evaluator.significance(),
                            &evaluator.eval_set(), configs,
                            evaluator.eval_images());
    SweepStatics statics;
    statics.mac_reduction.resize(configs.size());
    statics.cycles.resize(configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
      statics.mac_reduction[i] = outcome.results[i].conv_mac_reduction;
      statics.cycles[i] = outcome.results[i].cycles;
    }
    const AdaptiveSweepResult sweep =
        adaptive_accuracy_sweep(cache, statics, options, progress);
    for (size_t i = 0; i < configs.size(); ++i) {
      outcome.results[i].accuracy = sweep.accuracy[i];
      outcome.results[i].partial_eval =
          sweep.images_evaluated[i] < cache.eval_images();
    }
    outcome.cache_hits = sweep.cache_hits;
    outcome.images_evaluated = sweep.total_images;
    outcome.early_exits = sweep.early_exits;
  } else {
    std::atomic<int> done{0};
    parallel_for(0, static_cast<int64_t>(configs.size()), [&](int64_t i) {
      outcome.results[static_cast<size_t>(i)] =
          evaluator.evaluate(configs[static_cast<size_t>(i)]);
      const int d = done.fetch_add(1, std::memory_order_relaxed) + 1;
      if (progress && (d % 16 == 0 || d == static_cast<int>(configs.size())))
        progress(d, static_cast<int>(configs.size()));
    });
    outcome.images_evaluated =
        static_cast<int64_t>(configs.size()) *
        clamp_eval_limit(evaluator.eval_images(), evaluator.eval_set().size());
  }

  outcome.exact_accuracy = outcome.results.front().accuracy;
  outcome.baseline_cycles = evaluator.baseline_cycles();

  std::vector<ParetoPoint> points;
  points.reserve(outcome.results.size());
  for (size_t i = 0; i < outcome.results.size(); ++i) {
    points.push_back({outcome.results[i].conv_mac_reduction,
                      outcome.results[i].accuracy, static_cast<int>(i)});
  }
  outcome.pareto = pareto_front(points);
  outcome.wall_seconds = watch.seconds();
  return outcome;
}

DseOutcome run_dse(const ConfigEvaluator& evaluator,
                   const std::vector<ApproxConfig>& configs,
                   const DseProgress& progress) {
  return run_dse(evaluator, configs, DseOptions{}, progress);
}

DseOutcome run_dse(const ConfigEvaluator& evaluator, int conv_count,
                   const DseOptions& options, const DseProgress& progress) {
  return run_dse(evaluator, generate_configs(conv_count, options), options,
                 progress);
}

int select_design(const DseOutcome& outcome, double max_accuracy_loss,
                  int64_t flash_capacity, double max_stream_energy_mj) {
  const double floor_acc = outcome.exact_accuracy - max_accuracy_loss;
  int best = -1;
  for (size_t i = 0; i < outcome.results.size(); ++i) {
    const DseResult& r = outcome.results[i];
    // Partial-sample accuracies (early-exited configs) must not clear an
    // accuracy floor their full-budget measurement might miss.
    if (r.partial_eval) continue;
    if (r.accuracy + 1e-12 < floor_acc) continue;
    if (flash_capacity > 0 && r.flash_bytes > flash_capacity) continue;
    // An active streaming-energy budget needs a modeled row to check
    // against; results swept without set_stream_stride never qualify.
    if (max_stream_energy_mj > 0.0 &&
        (r.stream_energy_mj_per_frame <= 0.0 ||
         r.stream_energy_mj_per_frame > max_stream_energy_mj)) {
      continue;
    }
    if (best < 0 ||
        r.cycles < outcome.results[static_cast<size_t>(best)].cycles) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

}  // namespace ataman
