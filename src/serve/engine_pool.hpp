// Per-worker engine instances for the serve runtime.
//
// Rule: an engine instance is only ever executed by the worker that owns
// it. Engine run() paths are const, and the in-tree engines keep no
// mutable state (each call walks its compiled plan over a call-local
// arena, src/core/exec_plan.hpp), but the pool does not bet correctness
// on every present and future backend staying that way — isolation per
// worker makes a data race impossible by construction.
//
// Construction is two-tier so warmup stays cheap:
//   * The first request for a (backend, mask) key builds a shared
//     *prototype* through EngineRegistry — the expensive path (plan
//     compilation, weight packing, program unpacking, cycle pricing).
//   * Each worker then takes InferenceEngine::clone() of the prototype —
//     a flat copy of the derived state — once per key it serves.
// Every engine fixes its mask at construction, so every backend keys per
// mask. The steady state — engine already cloned — touches only the
// worker's own map; the pool mutex is taken only to build something new.
//
// Exact backends that ignore masks (cmsis, xcube) should be addressed
// with mask == nullptr; a non-null mask is keyed literally and would
// duplicate an identical engine per mask pointer.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/core/engine_iface.hpp"

namespace ataman::serve {

struct EnginePoolStats {
  int64_t prototypes_built = 0;  // registry builds shared across workers
  int64_t engines_cloned = 0;    // cheap per-worker clones
};

class EnginePool {
 public:
  // `model` must outlive the pool. `workers` is the number of distinct
  // owner ids engine_for will be called with.
  EnginePool(const QModel* model, int workers);

  // The engine owned by `worker` for (backend, mask), built lazily.
  // Thread contract: any number of workers may call concurrently, but
  // each worker id must have at most one caller — the returned reference
  // is only safe to use on that worker's thread, and it stays valid
  // until the pool dies. Throws ataman::Error with the registry's
  // message when the key's engine cannot be built; a failed key is not
  // built again.
  InferenceEngine& engine_for(int worker, const std::string& backend,
                              const SkipMask* mask);

  EnginePoolStats stats() const;

 private:
  using Key = std::pair<std::string, const SkipMask*>;
  using EngineMap = std::map<Key, std::unique_ptr<InferenceEngine>>;

  // Slow path: build/find the key's prototype and clone it for a worker.
  // Takes proto_mutex_.
  std::unique_ptr<InferenceEngine> make_instance(const Key& key);

  const QModel* model_;

  mutable std::mutex proto_mutex_;  // guards the three members below
  EngineMap prototypes_;
  std::map<Key, std::string> failures_;  // build error message per key
  EnginePoolStats stats_;

  // per_worker_[w] is touched only by worker w (no lock needed).
  std::vector<EngineMap> per_worker_;
};

}  // namespace ataman::serve
