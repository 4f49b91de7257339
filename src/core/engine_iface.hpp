// The one inference-engine seam of the repo.
//
// Every backend — the golden reference kernels (`src/nn`), the packed
// CMSIS-NN-style baseline and the X-CUBE-AI comparator priced over it
// (`src/cmsisnn`), and the paper's unpacked approximate engine
// (`src/unpack`) — implements `InferenceEngine` and registers a factory
// with `EngineRegistry`. Evaluation loops (the DSE, the Table II bench,
// the CLI) only ever talk to this interface, so adding a backend is a
// single registration, not a new wiring job per call site.
//
// Cost semantics: `total_cycles`/`flash_bytes`/`ram_bytes` describe the
// *modeled MCU deployment* of the engine's instruction stream. An engine
// with no deployment substrate (the reference oracle) reports zero for
// all three; report consumers treat zeros as "not modeled".
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/data/dataset.hpp"
#include "src/mcu/board.hpp"
#include "src/mcu/cost_model.hpp"
#include "src/mcu/deploy_report.hpp"
#include "src/mcu/memory_model.hpp"
#include "src/mcu/stream_plan.hpp"
#include "src/quant/qtypes.hpp"

namespace ataman {

struct SkipMask;

// Lowest-index-wins argmax over int8 logits. Ties between logits are
// common at int8 precision; every `classify` implementation (and any
// generated code) must break them identically — towards the lowest class
// index — for "bit-exact with the reference engine" to hold on ties.
inline int argmax_lowest_index(std::span<const int8_t> logits) {
  check(!logits.empty(), "argmax over empty logits");
  int best = 0;
  for (int i = 1; i < static_cast<int>(logits.size()); ++i) {
    if (logits[i] > logits[best]) best = i;  // strict '>': ties keep lowest
  }
  return best;
}

// Scored-head (TaskHead::kScore) reduction: mean squared error between
// the dequantized int8 reconstruction (the model's final QDense output)
// and the dequantized int8 input tensor, accumulated in double. The
// int8 tensors are bit-exact across backends, and IEEE double addition
// over a fixed order is deterministic, so the *score* is bit-exact
// across backends too — the scored analogue of the logits-parity
// contract. The model's final layer must be a QDense whose out_dim
// equals the input element count.
double reconstruction_score(const QModel& model,
                            std::span<const int8_t> q_input,
                            std::span<const int8_t> reconstruction);

// Class decision of a scored head: strictly above threshold = anomalous
// (class 1). Every consumer — engines, evaluator, prefix cache, serve
// workers, generated C — must use this one comparison for "bit-exact
// classification parity" to hold at the decision boundary.
inline int scored_class(const QModel& model, double score) {
  return score > model.score_threshold ? 1 : 0;
}

// Cross-frame state of one streaming session (docs/SERVING.md
// "Streaming sessions"): a ring of kMaxStreamLookback + 1 whole frames in
// the plan's unaliased frame layout (ExecPlan::frame_offsets) — the
// newest `fill` slots are the retained past frames, the next one is
// where the current frame runs — plus the stride history and the reuse
// counters. The ring and the kernels' q15
// scratch share one allocation, made by the session's first frame; a
// state is bound to that frame's layout and rejects a model whose
// layout differs. Owned by the caller (serve::StreamSession or a bench
// loop); engines read and advance it only inside run_incremental. Not
// thread-safe on its own: the serve queue guarantees at most one
// in-flight frame per session.
struct StreamState {
  std::vector<int16_t> words;   // q15 scratch, then the ring of frames
  std::vector<int64_t> layout;  // the bound frame layout
  int head = 0;                 // ring slot of the newest retained frame
  int fill = 0;                 // retained past frames
  // Newest-first strides the last frame was planned against (zero past
  // its ring fill).
  std::array<int, kMaxStreamLookback> past_strides{};
  // The last splice plan: it depends only on the stride history and the
  // ring fill, so a steady stride plans once.
  StreamPlan plan;
  int frames = 0;  // frames executed so far
  // Mask identity of the session's first frame: a streaming session is
  // one fixed configuration — splicing activations produced under a
  // different mask would splice different arithmetic. The reference
  // engine rejects a mid-session mask change (the other engines bake
  // their mask in at construction).
  const SkipMask* bound_mask = nullptr;

  // Reuse accounting, maintained by run_incremental.
  int64_t last_recomputed_macs = 0;  // most recent frame
  int64_t last_spliced_elems = 0;
  int64_t total_recomputed_macs = 0;
  int64_t total_full_macs = 0;  // what reuse-off run() would have executed

  bool started() const { return frames > 0; }
};

class InferenceEngine {
 public:
  virtual ~InferenceEngine() = default;

  const QModel& model() const { return *model_; }

  // Report label for DeployReport::design (e.g. "cmsis-nn", "ataman").
  const std::string& design_name() const { return design_name_; }
  void set_design_name(std::string name) { design_name_ = std::move(name); }

  // Quantize a u8 image into the model's int8 input tensor. Identical for
  // every backend (q = pixel - 128 for the standard [0,1] input scale).
  std::vector<int8_t> quantize_input(std::span<const uint8_t> image) const;

  // Full inference; returns the final layer's int8 logits.
  virtual std::vector<int8_t> run(std::span<const uint8_t> image) const = 0;

  // Batched inference: one logits vector per input image, bitwise
  // identical to calling run() on each image in isolation — batch size,
  // batch composition (including duplicate images) and ragged final
  // batches can never change a single logit. `logits_out` is resized to
  // images.size(); previous contents are discarded. An empty batch is a
  // hard error.
  //
  // The default implementation loops run() per image, so out-of-tree
  // backends keep working unchanged. The in-tree engines walk their
  // compiled plan over the whole batch instead (src/core/exec_plan.hpp)
  // and do NOT call run() per image — a subclass that intercepts
  // execution by overriding run() must override run_batch too
  // (tests/test_serve.cpp GateEngine is the in-tree example).
  virtual void run_batch(std::span<const std::span<const uint8_t>> images,
                         std::vector<std::vector<int8_t>>& logits_out) const;

  // Streaming-frame inference with temporal activation reuse.
  // `new_columns` holds the `s` newest input columns in [h][s][c] u8
  // layout (s = new_columns.size() / (in_h * in_c)); the first frame of
  // a session must push a full window (s == in_w). Returns the final
  // int8 logits, bitwise identical to run() on the full assembled
  // window — src/mcu/stream_plan.hpp derives why splicing is exact.
  // Advances `state` (ring of past activations, strides, reuse
  // counters) only when the frame succeeds. Every in-tree engine
  // forwards to its compiled plan (ExecPlan::run_incremental); the base
  // class declines, so an out-of-tree backend without a plan fails on a
  // session's first frame.
  virtual std::vector<int8_t> run_incremental(
      StreamState& state, std::span<const uint8_t> new_columns) const;

  // Top-1 class; ties broken lowest-index-wins (argmax_lowest_index).
  // On scored models (TaskHead::kScore) the decision is instead
  // scored_class(reconstruction_score(...)): 1 = anomalous.
  virtual int classify(std::span<const uint8_t> image) const;

  // Scalar anomaly score of a scored model: run() + reconstruction_score.
  // Bit-exact across backends (see reconstruction_score). Throws on
  // TaskHead::kClassify models, whose head has no scalar reduction.
  virtual double score(std::span<const uint8_t> image) const;

  // Cheap duplicate for per-worker engine pools (src/serve): copies the
  // engine's derived state (packed weight streams, unpacked channel
  // programs, precomputed cost tallies) without re-running the expensive
  // constructor analysis, and shares the immutable QModel / bound
  // SkipMask through the same non-owning pointers. Returns nullptr when
  // the backend is not clonable; callers (EnginePool) then fall back to
  // building a fresh instance through the registry factory. All four
  // in-tree backends clone.
  virtual std::unique_ptr<InferenceEngine> clone() const { return nullptr; }

  // Mask rebinding: a backend that applies the skip mask at *run* time
  // (the reference oracle) can swap masks between inferences on one
  // instance, so a pool keeps one engine per worker for any number of
  // approximate configs. Backends that bake the mask into constructed
  // state (unpacked instruction streams) cannot rebind — pools key those
  // per mask instead. `mask` must outlive the engine; nullptr unbinds.
  // Throws unless supports_mask_rebind().
  virtual bool supports_mask_rebind() const { return false; }
  virtual void rebind_mask(const SkipMask* mask);

  // Modeled deployment cost of one inference (0 = not modeled).
  virtual int64_t total_cycles() const = 0;

  // Per-layer cycle/MAC breakdown (empty when the engine does not profile).
  virtual const std::vector<LayerProfile>& layer_profile() const;

  // Executed (non-skipped) conv/depthwise + fc MACs per inference.
  virtual int64_t mac_ops() const { return model().mac_count(); }

  // Modeled deployment footprint (0 = not modeled).
  virtual int64_t flash_bytes() const { return 0; }
  virtual int64_t ram_bytes() const { return 0; }

  // Full Table II row: accuracy measured on `eval` (up to `limit` images,
  // all if < 0) through the shared batched evaluator in src/core/eval,
  // cost columns from the virtual accessors above.
  virtual DeployReport deploy(const Dataset& eval, const BoardSpec& board,
                              int limit = -1) const;

 protected:
  InferenceEngine(const QModel* model, std::string design_name)
      : model_(model), design_name_(std::move(design_name)) {
    check(model != nullptr, "engine needs a model");
    check(!model->layers.empty(), "model has no layers");
  }

  // Uniform refusal for the optional capabilities (run_incremental,
  // rebind_mask): every decline throws the same message shape, naming
  // the engine and the declined API. Pinned by the contract test in
  // tests/test_streaming.cpp.
  [[noreturn]] void decline_capability(const char* api) const;

  // Shared run_batch entry validation: empty batches are a hard error
  // everywhere (a silent zero-output success would hide scheduler bugs).
  void check_batch_nonempty(
      std::span<const std::span<const uint8_t>> images) const {
    if (images.empty())
      fail("run_batch on engine '" + design_name_ +
           "': batch must contain at least one image");
  }

 private:
  const QModel* model_;
  std::string design_name_;
};

// Everything a factory may need to build any registered backend. Fields a
// backend does not understand are ignored (e.g. `mask` by the exact packed
// engines); `model` is mandatory.
struct EngineConfig {
  const QModel* model = nullptr;
  // Skip mask for mask-aware engines (ref, unpacked). Must outlive the
  // engine.
  const SkipMask* mask = nullptr;
  // Per-approximable-layer-ordinal hybrid selection (unpacked only; see
  // src/unpack/layer_selection.hpp). Must outlive the engine.
  const std::vector<uint8_t>* unpack_selection = nullptr;
  CortexM33CostTable costs{};
  MemoryCostTable memory{};
  const XCubeCostTable* xcube = nullptr;  // nullptr -> default table
  std::string design_name;                // empty -> engine default
};

// String-keyed engine factory. The four in-tree backends self-register as
// "ref", "cmsis", "unpacked" and "xcube"; out-of-tree backends register at
// startup with register_engine. Thread-safe: create() may be called from
// inside parallel regions (the DSE does).
class EngineRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<InferenceEngine>(const EngineConfig&)>;

  static EngineRegistry& instance();

  // Registers (or replaces) a factory under `name`.
  void register_engine(const std::string& name, Factory factory);

  bool contains(const std::string& name) const;
  std::vector<std::string> names() const;  // sorted

  // Builds `name` from `config`; throws on unknown names or a null model.
  std::unique_ptr<InferenceEngine> create(const std::string& name,
                                          const EngineConfig& config) const;

 private:
  EngineRegistry();  // pre-registers the four in-tree backends

  mutable std::mutex mutex_;
  std::map<std::string, Factory> factories_;
};

}  // namespace ataman
