// The one inference-engine seam of the repo.
//
// Every backend — the golden reference kernels (`src/nn`), the packed
// CMSIS-NN-style baseline and the X-CUBE-AI comparator priced over it
// (`src/cmsisnn`), and the paper's unpacked approximate engine
// (`src/unpack`) — is an `InferenceEngine` that supplies one kernel
// table for the shared plan walk, and registers a factory with
// `EngineRegistry`. Evaluation loops (the DSE, the Table II bench, the
// CLI) only ever talk to this interface, so adding a backend is a single
// registration, not a new wiring job per call site.
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
#include "src/core/exec_plan.hpp"
#include "src/data/dataset.hpp"
#include "src/mcu/board.hpp"
#include "src/mcu/cost_model.hpp"
#include "src/mcu/deploy_report.hpp"
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
  // different mask would splice different arithmetic, so run_incremental
  // rejects a frame from an engine built with another mask.
  const SkipMask* bound_mask = nullptr;

  // Reuse accounting, maintained by run_incremental.
  int64_t last_recomputed_macs = 0;  // most recent frame
  int64_t last_spliced_elems = 0;

  bool started() const { return frames > 0; }
};

// One engine = the shared plan walk + a kernel table + a cost fixed at
// construction. The base compiles the model's ExecPlan and owns every
// entry point (run, run_batch, run_incremental, classify, score,
// deploy); a backend only supplies how one step executes (`kernels()`)
// and writes its modeled cost once in its constructor. The skip mask,
// if any, is fixed at construction too: a different mask is a different
// engine (serve pools key engines per mask).
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
  std::vector<int8_t> run(std::span<const uint8_t> image) const {
    return plan_.run(image, kernels());
  }

  // Batched inference: one logits vector per input image, bitwise
  // identical to calling run() on each image in isolation — batch size,
  // batch composition (including duplicate images) and ragged final
  // batches can never change a single logit. Each layer runs over every
  // image before the next one starts, so its weights stay hot across the
  // batch. `logits_out` is resized to images.size(); previous contents
  // are discarded. An empty batch is a hard error.
  void run_batch(std::span<const std::span<const uint8_t>> images,
                 std::vector<std::vector<int8_t>>& logits_out) const;

  // Streaming-frame inference with temporal activation reuse.
  // `new_columns` holds the `s` newest input columns in [h][s][c] u8
  // layout (s = new_columns.size() / (in_h * in_c)); the first frame of
  // a session must push a full window (s == in_w). Returns the final
  // int8 logits, bitwise identical to run() on the full assembled
  // window — src/mcu/stream_plan.hpp derives why splicing is exact.
  // Advances `state` (ring of past activations, strides, reuse
  // counters) only when the frame succeeds. The session's first frame
  // pins the engine's mask; a frame from an engine with another mask
  // throws.
  std::vector<int8_t> run_incremental(
      StreamState& state, std::span<const uint8_t> new_columns) const;

  // Top-1 class; ties broken lowest-index-wins (argmax_lowest_index).
  // On scored models (TaskHead::kScore) the decision is instead
  // scored_class(reconstruction_score(...)): 1 = anomalous.
  int classify(std::span<const uint8_t> image) const;

  // Scalar anomaly score of a scored model: run() + reconstruction_score.
  // Bit-exact across backends (see reconstruction_score). Throws on
  // TaskHead::kClassify models, whose head has no scalar reduction.
  double score(std::span<const uint8_t> image) const;

  // Cheap duplicate for per-worker engine pools (src/serve): copies the
  // compiled plan and the backend's derived state (packed weight
  // streams, unpacked channel programs, the priced cost) without
  // re-running the constructor analysis, and shares the immutable
  // QModel / SkipMask through the same non-owning pointers.
  virtual std::unique_ptr<InferenceEngine> clone() const = 0;

  // Modeled deployment cost of one inference (0 = not modeled).
  int64_t total_cycles() const { return price_.total_cycles; }

  // Per-layer cycle/MAC breakdown (empty when the engine does not profile).
  const std::vector<LayerProfile>& layer_profile() const {
    return price_.rows;
  }

  // Executed (non-skipped) conv/depthwise + fc MACs per inference.
  int64_t mac_ops() const { return price_.macs; }

  // Modeled deployment footprint (0 = not modeled).
  int64_t flash_bytes() const { return flash_bytes_; }
  int64_t ram_bytes() const { return ram_bytes_; }

  // Full Table II row: accuracy measured on `eval` (up to `limit` images,
  // all if < 0) through the shared batched evaluator in src/core/eval,
  // cost columns from the accessors above.
  DeployReport deploy(const Dataset& eval, const BoardSpec& board,
                      int limit = -1) const;

 protected:
  // Compiles the plan and validates `mask` (which must outlive the
  // engine) against the model. `price_.macs` starts as the mask's
  // executed MACs; the subclass constructor writes the rest of the cost.
  InferenceEngine(const QModel* model, const SkipMask* mask,
                  std::string design_name);

  // How this backend executes one plan step.
  virtual const KernelTable& kernels() const = 0;

  const ExecPlan& plan() const { return plan_; }

  // The modeled cost, written once by the subclass constructor.
  ModelPrice price_;
  int64_t flash_bytes_ = 0;
  int64_t ram_bytes_ = 0;

 private:
  const QModel* model_;
  const SkipMask* mask_;
  std::string design_name_;
  ExecPlan plan_;
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
  std::string design_name;  // empty -> engine default
};

// String-keyed engine factory. The four in-tree backends self-register as
// "ref", "cmsis", "unpacked" and "xcube"; register_engine adds or
// replaces one (the serve tests inject a blocking engine this way). Thread-safe: create() may be called from
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
