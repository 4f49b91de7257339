// Per-configuration evaluation: the static deployment metrics (retained
// MACs, predicted cycles, flash) from the MCU models, plus — in
// evaluate(), the oracle the tests check the sweep against —
// classification accuracy through the reference engine on the
// zeroed-weight model (numerically identical to running the skipped
// unpacked code). run_dse measures the accuracies of a whole config
// space, for every model, through the prefix cache instead
// (src/dse/prefix_cache).
#pragma once

#include <cstdint>
#include <vector>

#include "src/data/dataset.hpp"
#include "src/mcu/board.hpp"
#include "src/mcu/cost_model.hpp"
#include "src/mcu/memory_model.hpp"
#include "src/mcu/stream_plan.hpp"
#include "src/sig/skip_plan.hpp"

namespace ataman {

struct DseResult {
  ApproxConfig config;
  double accuracy = 0.0;
  // True when `accuracy` is a partial sample left behind by the adaptive
  // sweep's early exit (never set on the all-exact config, a Pareto
  // member, or any result of an exact sweep). select_design skips
  // partial results: a lucky partial sample must not satisfy an
  // accuracy-loss budget its full-budget measurement would miss.
  bool partial_eval = false;
  // Retained conv/depthwise + fc MACs per inference.
  int64_t executed_macs = 0;
  // MACs skipped in the approximable (conv + depthwise) layers; the
  // `conv_` prefix is historical (pre-depthwise).
  int64_t skipped_conv_macs = 0;
  double conv_mac_reduction = 0.0;  // Fig. 2 x-axis (approximable layers)
  int64_t cycles = 0;               // unpacked deployment cycles
  double latency_reduction = 0.0;   // vs. packed exact baseline
  int64_t flash_bytes = 0;          // unpacked deployment flash
  // Steady-state streaming row (0 when the evaluator has no stream
  // stride set): per-frame unpacked cycles / paper-board energy when
  // serving overlapping windows with temporal reuse
  // (src/mcu/stream_plan.hpp). A constrainable objective in
  // select_design.
  int64_t stream_cycles_per_frame = 0;
  double stream_energy_mj_per_frame = 0.0;
};

// Static (per-layer) unpacking statistics induced by a skip mask.
struct UnpackStats {
  std::vector<int64_t> static_pairs;    // by approximable-layer ordinal
  std::vector<int64_t> static_singles;  // by approximable-layer ordinal
  int64_t retained_conv_macs = 0;       // dynamic, per inference
};

UnpackStats compute_unpack_stats(const QModel& model, const SkipMask& mask);

class ConfigEvaluator {
 public:
  // `eval` must outlive the evaluator. `eval_images` caps accuracy
  // evaluation (-1 = all).
  ConfigEvaluator(const QModel* model,
                  const std::vector<LayerSignificance>* significance,
                  const Dataset* eval, int eval_images);

  // Static metrics plus the accuracy of the reference engine on the
  // zeroed-weight model: the per-config oracle the cached sweep is
  // tested against (and the legacy sweep bench/dse_scaling times).
  DseResult evaluate(const ApproxConfig& config) const;

  // The static (per-inference) deployment metrics only — everything in
  // DseResult except accuracy, which is left 0. The prefix-cached sweep
  // (src/dse/prefix_cache + src/dse/adaptive_eval) measures accuracy for
  // the whole config space at once and fills it in afterwards; evaluate()
  // is evaluate_static() plus the per-config accuracy measurement.
  DseResult evaluate_static(const ApproxConfig& config) const;

  // Cycle count of the packed exact baseline (latency_reduction reference).
  int64_t baseline_cycles() const { return baseline_cycles_; }

  // Enable the steady-state streaming row: every subsequent result also
  // prices the per-frame unpacked deployment of overlapping windows
  // advancing `stride_cols` columns per frame (0 disables; the splice
  // plan is geometry-only, so it is computed once here, not per config).
  // Energy uses the default BoardSpec — the paper board. Not
  // thread-safe: set before the sweep starts.
  void set_stream_stride(int stride_cols);

  // Wiring the fast sweep path needs (run_dse builds the prefix cache
  // from the same model/significance/eval set this evaluator scores).
  const QModel& model() const { return *model_; }
  const std::vector<LayerSignificance>& significance() const {
    return *significance_;
  }
  const Dataset& eval_set() const { return *eval_; }
  int eval_images() const { return eval_images_; }

 private:
  // Static metrics for a config whose skip mask is already built (both
  // public evaluation entry points share this; the mask is O(weights) to
  // construct, so it is built exactly once per call).
  DseResult static_metrics(const ApproxConfig& config,
                           const SkipMask& mask) const;

  const QModel* model_;
  const std::vector<LayerSignificance>* significance_;
  const Dataset* eval_;
  int eval_images_;
  int64_t baseline_cycles_ = 0;
  int64_t conv_total_macs_ = 0;
  int64_t fc_total_macs_ = 0;
  int stream_stride_ = 0;
  StreamPlan stream_plan_;  // steady-state plan when stream_stride_ > 0
};

}  // namespace ataman
