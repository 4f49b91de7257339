#include "src/dse/evaluator.hpp"

#include <algorithm>

#include "src/common/error.hpp"
#include "src/core/eval.hpp"
#include "src/nn/engine.hpp"

namespace ataman {

UnpackStats compute_unpack_stats(const QModel& model, const SkipMask& mask) {
  mask.validate(model);
  UnpackStats stats;
  int ordinal = 0;
  for (const QLayer& layer : model.layers) {
    const OpDescriptor d = describe_layer(layer);
    if (!d.skippable) continue;
    const uint8_t* m = mask.row(ordinal);
    int64_t pairs = 0, singles = 0, retained_static = 0;
    for (int ch = 0; ch < d.channels; ++ch) {
      int retained = 0;
      if (m == nullptr) {
        retained = d.patch;
      } else {
        const uint8_t* row = m + static_cast<size_t>(ch) * d.patch;
        for (int i = 0; i < d.patch; ++i) retained += row[i] ? 0 : 1;
      }
      pairs += retained / 2;
      singles += retained % 2;
      retained_static += retained;
    }
    stats.static_pairs.push_back(pairs);
    stats.static_singles.push_back(singles);
    stats.retained_conv_macs += retained_static * d.positions;
    ++ordinal;
  }
  return stats;
}

ConfigEvaluator::ConfigEvaluator(
    const QModel* model, const std::vector<LayerSignificance>* significance,
    const Dataset* eval, int eval_images)
    : model_(model),
      significance_(significance),
      eval_(eval),
      eval_images_(eval_images) {
  check(model != nullptr && significance != nullptr && eval != nullptr,
        "evaluator needs model, significance and eval set");
  check(static_cast<int>(significance->size()) ==
            model->approx_layer_count(),
        "significance does not match model");
  baseline_cycles_ = packed_model_cycles(*model_);
  conv_total_macs_ = model_->approx_mac_count();
  fc_total_macs_ = model_->mac_count() - conv_total_macs_;
}

void ConfigEvaluator::set_stream_stride(int stride_cols) {
  check(stride_cols >= 0, "stream stride must be >= 0 (0 disables)");
  stream_stride_ = stride_cols;
  stream_plan_ = stride_cols > 0 ? plan_stream_steady(*model_, stride_cols)
                                 : StreamPlan{};
}

DseResult ConfigEvaluator::evaluate(const ApproxConfig& config) const {
  check(static_cast<int>(config.tau.size()) == model_->approx_layer_count(),
        "config does not match model");
  const SkipMask mask = make_skip_mask(*model_, *significance_, config);
  DseResult r = static_metrics(config, mask);
  // Zeroed-weight copy: numerically identical to skip-aware execution
  // (tests assert it) but branch-free, so the evaluation runs ~2x faster.
  const QModel masked = apply_skip_mask(*model_, mask);
  const RefEngine engine(&masked);
  r.accuracy = evaluate_batch(engine, *eval_, eval_images_).top1;
  return r;
}

DseResult ConfigEvaluator::evaluate_static(const ApproxConfig& config) const {
  check(static_cast<int>(config.tau.size()) == model_->approx_layer_count(),
        "config does not match model");
  return static_metrics(config,
                        make_skip_mask(*model_, *significance_, config));
}

DseResult ConfigEvaluator::static_metrics(const ApproxConfig& config,
                                          const SkipMask& mask) const {
  DseResult r;
  r.config = config;
  const UnpackStats stats = compute_unpack_stats(*model_, mask);
  r.executed_macs = stats.retained_conv_macs + fc_total_macs_;
  r.skipped_conv_macs = conv_total_macs_ - stats.retained_conv_macs;
  r.conv_mac_reduction =
      conv_total_macs_ > 0
          ? static_cast<double>(r.skipped_conv_macs) /
                static_cast<double>(conv_total_macs_)
          : 0.0;

  // Unpacked deployment cycles: unpacked conv/depthwise + packed
  // FC/pool/softmax. When a stream stride is set, the same deployment's
  // steady-state streaming frame is priced over the splice plan (pure
  // geometry, shared across configs).
  r.cycles = price_model(*model_, PriceList::kUnpacked, stats.static_pairs,
                         stats.static_singles)
                 .total_cycles;
  if (stream_stride_ > 0) {
    r.stream_cycles_per_frame =
        price_model(*model_, PriceList::kUnpacked, stats.static_pairs,
                    stats.static_singles, &stream_plan_)
            .total_cycles;
    r.stream_energy_mj_per_frame =
        BoardSpec{}.energy_mj(r.stream_cycles_per_frame);
  }
  r.latency_reduction =
      1.0 - static_cast<double>(r.cycles) /
                static_cast<double>(baseline_cycles_);
  r.flash_bytes =
      unpacked_flash(*model_, stats.static_pairs, stats.static_singles)
          .total_bytes;
  return r;
}

}  // namespace ataman
