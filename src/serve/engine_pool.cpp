#include "src/serve/engine_pool.hpp"

#include "src/common/error.hpp"

namespace ataman::serve {

namespace {
// Validated before it sizes any container, so workers <= 0 surfaces as
// a clean ataman::Error instead of std::length_error from a negative
// vector resize.
int checked_workers(int workers) {
  check(workers >= 1, "EnginePool needs at least one worker");
  return workers;
}
}  // namespace

EnginePool::EnginePool(const QModel* model, int workers)
    : model_(model),
      per_worker_(static_cast<size_t>(checked_workers(workers))) {
  check(model != nullptr, "EnginePool needs a model");
}

std::unique_ptr<InferenceEngine> EnginePool::make_instance(const Key& key) {
  const std::lock_guard<std::mutex> lock(proto_mutex_);
  auto it = prototypes_.find(key);
  if (it == prototypes_.end()) {
    if (const auto failed = failures_.find(key); failed != failures_.end())
      throw Error(failed->second);
    EngineConfig cfg;
    cfg.model = model_;
    cfg.mask = key.second;
    std::unique_ptr<InferenceEngine> prototype;
    try {
      prototype = EngineRegistry::instance().create(key.first, cfg);
    } catch (const std::exception& e) {
      failures_.emplace(key, e.what());
      throw Error(e.what());
    }
    it = prototypes_.emplace(key, std::move(prototype)).first;
    ++stats_.prototypes_built;
  }
  ++stats_.engines_cloned;
  return it->second->clone();
}

InferenceEngine& EnginePool::engine_for(int worker,
                                        const std::string& backend,
                                        const SkipMask* mask) {
  check(worker >= 0 && worker < static_cast<int>(per_worker_.size()),
        "engine_for: worker id out of range");
  EngineMap& engines = per_worker_[static_cast<size_t>(worker)];
  const Key key{backend, mask};
  auto it = engines.find(key);
  if (it == engines.end())
    it = engines.emplace(key, make_instance(key)).first;
  return *it->second;
}

EnginePoolStats EnginePool::stats() const {
  const std::lock_guard<std::mutex> lock(proto_mutex_);
  return stats_;
}

}  // namespace ataman::serve
