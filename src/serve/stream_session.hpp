// Long-lived streaming inference session (docs/SERVING.md "Streaming
// sessions").
//
// A session pins one (engine, mask) configuration for its whole life
// and receives overlapping input windows as *column pushes*: the first
// frame is a full window, every later frame only the s newest [h][s][c]
// time columns. Frames ride the ordinary RequestQueue next to one-shot
// jobs, but the queue executes at most one frame of a session at a time
// and always in push order, so the engine-side StreamState (the ring of
// past activations that temporal splicing reads) needs no locking of
// its own — memory visibility between the workers that take turns on a
// session is the queue mutex handoff.
//
// Every frame runs through InferenceEngine::run_incremental, which
// splices the activation columns that src/mcu/stream_plan.hpp proves
// bitwise-equal to a retained past frame and recomputes the rest. Each
// frame's logits are bitwise identical to running the full assembled
// window through the engine from scratch (the parity contract, pinned
// by tests/test_streaming.cpp).
//
// A frame that throws poisons the session: the frame was never applied,
// so later pushes would silently mean a different window — they fail
// fast with the original error instead.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/core/engine_iface.hpp"
#include "src/serve/request.hpp"

namespace ataman::serve {

struct StreamSessionOptions {
  std::string engine = "ref";      // EngineRegistry backend name
  const SkipMask* mask = nullptr;  // fixed approximate config; nullptr =
                                   // exact. Must outlive the session.
};

// Counter snapshot; all values monotone over the session's life.
struct StreamSessionStats {
  int64_t frames = 0;              // frames executed (ok)
  int64_t incremental_frames = 0;  // spliced at least one element
  int64_t fallback_frames = 0;     // recomputed in full: the first frame,
                                   // or a push no layer could splice
  int64_t recomputed_macs = 0;     // executed MACs across all frames
  int64_t full_macs = 0;           // what reuse-off would have executed
  int64_t spliced_elems = 0;       // int8 elements copied, not computed
  double reuse_ratio() const {
    return recomputed_macs > 0 ? static_cast<double>(full_macs) /
                                     static_cast<double>(recomputed_macs)
                               : 1.0;
  }
};

class StreamSession {
 public:
  uint64_t id() const { return id_; }
  const StreamSessionOptions& options() const { return options_; }
  const QModel& model() const { return *model_; }
  StreamSessionStats stats() const;

 private:
  friend class InferenceServer;

  // Built by InferenceServer::open_session. Scored heads are rejected:
  // their reduction reads the whole input window per frame, which
  // defeats column reuse and has no streaming semantics here.
  StreamSession(uint64_t id, const QModel* model,
                StreamSessionOptions options);

  // Caller-side admission check for the next push (column bytes must be
  // whole columns, at most a window, and the first push a full window).
  // Counts the push; throws without counting on a bad frame.
  void validate_push(size_t column_bytes);

  // Worker-side frame execution; exclusive by the queue's
  // one-in-flight-frame-per-session guarantee. Throws on engine errors
  // (and poisons the session so later frames fail fast).
  InferResult execute_frame(InferenceEngine& engine,
                            std::span<const uint8_t> columns);
  bool last_frame_spliced() const { return state_.last_spliced_elems > 0; }

  const uint64_t id_;
  const QModel* model_;
  const StreamSessionOptions options_;

  std::mutex push_mutex_;  // guards pushed_ (callers may race pushes)
  int64_t pushed_ = 0;

  // Worker-side state (see class comment for why it is lock-free).
  StreamState state_;
  bool poisoned_ = false;
  std::string poison_error_;

  mutable std::mutex stats_mutex_;
  StreamSessionStats stats_;
};

}  // namespace ataman::serve
