#include "src/core/ataman.hpp"

#include <cmath>
#include <functional>
#include <optional>
#include <sstream>

#include "src/common/serialize.hpp"
#include "src/core/engine_iface.hpp"
#include "src/core/eval.hpp"
#include "src/nn/engine.hpp"
#include "src/quant/qmodel_io.hpp"

namespace ataman {

AtamanPipeline::AtamanPipeline(const QModel* model, const Dataset* calib,
                               const Dataset* eval, PipelineOptions options)
    : model_(model), calib_(calib), eval_(eval), options_(options) {
  check(model != nullptr && calib != nullptr && eval != nullptr,
        "pipeline needs model, calibration and eval datasets");
  // Models with zero approximable layers (e.g. the dense autoencoder) are
  // allowed: the DSE degenerates to evaluating the single exact config,
  // and every deploy/serve/codegen path works unchanged.
}

void AtamanPipeline::analyze() {
  if (analyzed()) return;
  const std::vector<ConvInputStats> stats = capture_activation_stats(
      *model_, *calib_, options_.calibration_images);
  significance_ = compute_model_significance(*model_, stats);
  analyzed_ = true;
}

const std::vector<LayerSignificance>& AtamanPipeline::significance() const {
  check(analyzed(), "call analyze() first");
  return significance_;
}

DseOutcome AtamanPipeline::explore(const DseProgress& progress) {
  analyze();
  return explore(
      generate_configs(model_->approx_layer_count(), options_.dse), progress);
}

DseOutcome AtamanPipeline::explore(const std::vector<ApproxConfig>& configs,
                                   const DseProgress& progress) {
  analyze();
  const ConfigEvaluator evaluator(model_, &significance_, eval_,
                                  options_.dse.eval_images);
  return run_dse(evaluator, configs, options_.dse, progress);
}

int AtamanPipeline::select(const DseOutcome& outcome,
                           double max_accuracy_loss) const {
  return select_design(outcome, max_accuracy_loss,
                       options_.board.flash_bytes);
}

SkipMask AtamanPipeline::mask_for(const ApproxConfig& config) const {
  check(analyzed(), "call analyze() first");
  return make_skip_mask(*model_, significance_, config);
}

DeployReport AtamanPipeline::deploy(const ApproxConfig& config,
                                    const std::string& name,
                                    int eval_limit) const {
  return deploy_engine("unpacked", eval_limit, &config, name);
}

DeployReport AtamanPipeline::deploy_engine(const std::string& engine_name,
                                           int eval_limit,
                                           const ApproxConfig* config,
                                           const std::string& design_name) const {
  std::optional<SkipMask> mask;
  EngineConfig cfg;
  cfg.model = model_;
  cfg.design_name = design_name;
  if (config != nullptr) {
    mask.emplace(mask_for(*config));
    cfg.mask = &*mask;
  }
  const auto engine = EngineRegistry::instance().create(engine_name, cfg);
  return engine->deploy(*eval_, options_.board, eval_limit);
}

std::string AtamanPipeline::generate_code(const ApproxConfig& config,
                                          const CodegenOptions& options) const {
  const SkipMask mask = mask_for(config);
  return emit_model_c(*model_, &mask, options);
}

QModel get_or_build_qmodel(const ZooSpec& spec, const std::string& cache_dir) {
  ensure_directory(cache_dir);
  // Key the quantized artifact off the same fingerprint space as the
  // float model by hashing the architecture name + dataset + training
  // configuration through the float cache path machinery: simplest is to
  // derive it from the float model file itself.
  // "q8pc" = int8 with per-channel conv/depthwise weight scales; the
  // scheme tag keys the artifact so pre-per-channel caches (q8) are not
  // picked up — those requantize from the cached float model instead.
  std::ostringstream key;
  key << spec.arch.name << "_q8pc_" << spec.data.seed << "_"
      << spec.data.train_images << "_" << spec.train.epochs << "_"
      << static_cast<int>(spec.data.task) << "_"
      << static_cast<int>(spec.train.loss) << "_"
      << std::hash<std::string>{}(spec.arch.topology);
  const std::string path = cache_dir + "/" + key.str() + ".qm";
  if (file_exists(path)) return load_qmodel(path);

  TrainedModel trained = get_or_train(spec, cache_dir);
  const SynthCifar data = make_synth_cifar(spec.data);
  QModel qm = quantize_model(trained.net, data.train);
  if (spec.train.loss == TrainLoss::kMseReconstruction) {
    // Reconstruction-trained models quantize to a scored head; the
    // anomaly threshold is part of the artifact, calibrated once against
    // the all-normal training split.
    qm.head = TaskHead::kScore;
    qm.score_threshold = calibrate_score_threshold(qm, data.train);
  }
  save_qmodel(qm, path);
  return qm;
}

float calibrate_score_threshold(const QModel& model, const Dataset& normals,
                                int limit) {
  check(model.head == TaskHead::kScore,
        "threshold calibration needs a scored head");
  const int n = clamp_eval_limit(limit, normals.size());
  const RefEngine engine(&model);
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double s = engine.score(normals.image(i));
    sum += s;
    sum_sq += s * s;
  }
  const double mean = sum / n;
  const double var = std::max(0.0, sum_sq / n - mean * mean);
  // mean + 2 sigma of the normal-score distribution: ~2.3% false-positive
  // rate under a Gaussian fit, far below the corrupted-score band.
  return static_cast<float>(mean + 2.0 * std::sqrt(var));
}

}  // namespace ataman
