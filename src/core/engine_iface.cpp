#include "src/core/engine_iface.hpp"

#include "src/cmsisnn/cmsis_engine.hpp"
#include "src/core/eval.hpp"
#include "src/nn/engine.hpp"
#include "src/nn/skip_mask.hpp"
#include "src/unpack/unpacked_engine.hpp"

namespace ataman {

std::vector<int8_t> InferenceEngine::quantize_input(
    std::span<const uint8_t> image) const {
  const QModel& m = model();
  check(static_cast<int64_t>(image.size()) ==
            static_cast<int64_t>(m.in_h) * m.in_w * m.in_c,
        "input image size mismatch");
  std::vector<int8_t> q(image.size());
  plan_.quantize_input(image, q);
  return q;
}

double reconstruction_score(const QModel& model,
                            std::span<const int8_t> q_input,
                            std::span<const int8_t> reconstruction) {
  const auto* head = std::get_if<QDense>(&model.layers.back());
  check(head != nullptr,
        "reconstruction_score: final layer must be fully connected");
  check(reconstruction.size() == q_input.size() &&
            static_cast<int64_t>(q_input.size()) ==
                static_cast<int64_t>(model.in_h) * model.in_w * model.in_c,
        "reconstruction_score: reconstruction width != input element count");
  const QuantParams out = head->out;
  const QuantParams in = model.input;
  double sum = 0.0;
  for (size_t i = 0; i < q_input.size(); ++i) {
    const double diff = static_cast<double>(out.dequantize(reconstruction[i])) -
                        static_cast<double>(in.dequantize(q_input[i]));
    sum += diff * diff;
  }
  return sum / static_cast<double>(q_input.size());
}

InferenceEngine::InferenceEngine(const QModel* model, const SkipMask* mask,
                                 std::string design_name)
    : model_(model), mask_(mask), design_name_(std::move(design_name)) {
  check(model != nullptr, "engine needs a model");
  check(!model->layers.empty(), "model has no layers");
  plan_ = ExecPlan::compile(*model);
  price_.macs = model->mac_count() -
                (mask != nullptr ? mask->skipped_macs(*model) : 0);
}

void InferenceEngine::run_batch(
    std::span<const std::span<const uint8_t>> images,
    std::vector<std::vector<int8_t>>& logits_out) const {
  if (images.empty())
    fail("run_batch on engine '" + design_name_ +
         "': batch must contain at least one image");
  plan_.run_batch(images, kernels(), logits_out);
}

std::vector<int8_t> InferenceEngine::run_incremental(
    StreamState& state, std::span<const uint8_t> new_columns) const {
  check(!state.started() || state.bound_mask == mask_,
        "run_incremental: mask changed mid-session — a streaming session "
        "is one fixed configuration (open a new session to switch)");
  state.bound_mask = mask_;
  return plan_.run_incremental(state, new_columns, kernels());
}

int InferenceEngine::classify(std::span<const uint8_t> image) const {
  if (model().head == TaskHead::kScore)
    return scored_class(model(), score(image));
  return argmax_lowest_index(run(image));
}

double InferenceEngine::score(std::span<const uint8_t> image) const {
  if (model().head != TaskHead::kScore)
    fail("score() on engine '" + design_name_ + "': model '" + model().name +
         "' has an argmax head");
  return reconstruction_score(model(), quantize_input(image), run(image));
}

DeployReport InferenceEngine::deploy(const Dataset& eval,
                                     const BoardSpec& board,
                                     int limit) const {
  return assemble_deploy_report(*this, eval, board, limit);
}

EngineRegistry& EngineRegistry::instance() {
  static EngineRegistry registry;
  return registry;
}

EngineRegistry::EngineRegistry() {
  factories_["ref"] = [](const EngineConfig& cfg) {
    return std::make_unique<RefEngine>(cfg.model, cfg.mask);
  };
  factories_["cmsis"] = [](const EngineConfig& cfg) {
    return std::make_unique<CmsisEngine>(cfg.model);
  };
  factories_["unpacked"] = [](const EngineConfig& cfg) {
    return std::make_unique<UnpackedEngine>(cfg.model, cfg.mask,
                                            cfg.unpack_selection);
  };
  factories_["xcube"] = [](const EngineConfig& cfg) {
    return std::make_unique<CmsisEngine>(cfg.model, PriceList::kXCube);
  };
}

void EngineRegistry::register_engine(const std::string& name,
                                     Factory factory) {
  check(!name.empty(), "engine name must be non-empty");
  check(factory != nullptr, "engine factory must be callable");
  const std::lock_guard<std::mutex> lock(mutex_);
  factories_[name] = std::move(factory);
}

bool EngineRegistry::contains(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return factories_.count(name) != 0;
}

std::vector<std::string> EngineRegistry::names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;  // std::map iteration order is already sorted
}

std::unique_ptr<InferenceEngine> EngineRegistry::create(
    const std::string& name, const EngineConfig& config) const {
  check(config.model != nullptr, "EngineConfig.model must be set");
  Factory factory;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = factories_.find(name);
    if (it != factories_.end()) factory = it->second;
  }
  if (!factory) {
    std::string known;
    for (const std::string& n : names()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    fail("unknown engine '" + name + "' (registered: " + known + ")");
  }
  std::unique_ptr<InferenceEngine> engine = factory(config);
  check(engine != nullptr, "engine factory for '" + name + "' returned null");
  if (!config.design_name.empty())
    engine->set_design_name(config.design_name);
  return engine;
}

}  // namespace ataman
