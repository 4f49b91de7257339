// ATAMAN pipeline facade — the five steps of the paper's Fig. 1:
//
//   (1) layer-based code unpacking          -> unpack/ + mcu/ models
//   (2) input-distribution capture          -> analyze()
//   (3) significance S[] calculation        -> analyze()
//   (4) design-space exploration + configs  -> explore(), select()
//   (5) approximate CNN deployment          -> deploy(), generate_code()
//
// plus convenience plumbing to obtain a trained + quantized model from
// the zoo with on-disk caching.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/codegen/c_emitter.hpp"
#include "src/core/engine_iface.hpp"
#include "src/data/synth_cifar.hpp"
#include "src/dse/dse_runner.hpp"
#include "src/mcu/board.hpp"
#include "src/quant/quantizer.hpp"
#include "src/train/model_zoo.hpp"

namespace ataman {

struct PipelineOptions {
  int calibration_images = 256;   // for activation statistics (step 2)
  DseOptions dse;                 // step 4
  BoardSpec board = stm32u575_board();
};

class AtamanPipeline {
 public:
  // `model`, `calib` and `eval` must outlive the pipeline.
  AtamanPipeline(const QModel* model, const Dataset* calib,
                 const Dataset* eval, PipelineOptions options = {});

  // Steps 2+3: capture E[a_i] on the calibration subset and compute the
  // per-channel significance of every conv product. Idempotent.
  void analyze();
  bool analyzed() const { return analyzed_; }
  const std::vector<LayerSignificance>& significance() const;

  // Step 4: sweep the configured design space.
  DseOutcome explore(const DseProgress& progress = nullptr);

  // Step 5: pick the latency-optimal design within `max_accuracy_loss`
  // (absolute Top-1 fraction, e.g. 0.05) that fits the board's flash.
  int select(const DseOutcome& outcome, double max_accuracy_loss) const;

  SkipMask mask_for(const ApproxConfig& config) const;

  // Deploy the approximate design on the MCU substrate and measure the
  // full Table II row. `eval_limit` < 0 evaluates the whole eval set.
  DeployReport deploy(const ApproxConfig& config, const std::string& name,
                      int eval_limit = -1) const;

  // Deploy any EngineRegistry backend ("ref", "cmsis", "unpacked",
  // "xcube", or anything registered at startup) on the eval set. When
  // `config` is given, its skip mask is bound for mask-aware engines
  // (exact engines ignore it). This is the one deployment path: the
  // comparators are deploy_engine("cmsis") and deploy_engine("xcube").
  DeployReport deploy_engine(const std::string& engine_name,
                             int eval_limit = -1,
                             const ApproxConfig* config = nullptr,
                             const std::string& design_name = "") const;

  // Generated C for the approximate model (framework output 4 in Fig. 1).
  std::string generate_code(const ApproxConfig& config,
                            const CodegenOptions& options = {}) const;

  const QModel& model() const { return *model_; }
  const PipelineOptions& options() const { return options_; }

 private:
  const QModel* model_;
  const Dataset* calib_;
  const Dataset* eval_;
  PipelineOptions options_;
  std::vector<LayerSignificance> significance_;
  // Explicit flag: a model with zero approximable layers (e.g. the dense
  // autoencoder) analyzes to a legitimately empty significance.
  bool analyzed_ = false;
};

// Calibrate the anomaly threshold of a scored model: mean + 2*stddev of
// the reference-engine reconstruction scores over up to `limit` images of
// `normals` (the all-normal training split). Deterministic.
float calibrate_score_threshold(const QModel& model, const Dataset& normals,
                                int limit = 256);

// Train (or load from cache) the float model for `spec`, quantize it with
// PTQ (calibrated on the training split) and cache the result. The
// returned QModel is self-contained.
QModel get_or_build_qmodel(const ZooSpec& spec,
                           const std::string& cache_dir = artifact_cache_dir());

}  // namespace ataman
