// Lock-guarded FIFO of pending inference jobs + the micro-batching
// policy.
//
// Workers drain the queue through pop_batch(), which implements the
// coalescing scheduler: take the oldest job, then pull *later* jobs
// sharing its batch key — (engine name, mask pointer) — into one chunk,
// preserving arrival order inside the chunk. A one-shot chunk holds at
// most min(max_batch, ceil(queued / workers)) jobs, where `queued`
// counts the one-shots of that key in the queue (the head included): a
// burst of one key is split into one fair share per worker instead of
// serializing its later batches behind the first.
// A batch therefore always runs on one engine instance with one bound
// mask, which is what lets the worker execute it evaluate_batch-style
// (tight loop over images, engine state hot in cache, no per-request
// pool lookups).
//
// Fairness: only the *head* job's key is ever coalesced, so a flood of
// one configuration cannot starve others — the oldest job always leaves
// with the next batch, and foreign-key jobs keep their queue position.
//
// Streaming sessions: a job carrying a `session` pointer is one frame
// of a long-lived StreamSession. Frames must execute in push order and
// never concurrently (they advance shared cross-frame state), so the
// queue keeps a busy set: while one worker holds a session's frames,
// that session's later frames are ineligible and the head scan skips
// over them to the first eligible job. Session frames coalesce only
// with later frames of the *same* session (order preserved); one-shots
// never ride a session batch. Fairness is unchanged in both directions:
// a session pumping frames still surrenders the head slot like any
// other key, and one-shots parked behind a busy session's frames are
// picked immediately (pinned by tests/test_streaming.cpp).
//
// Shutdown: close() stops admissions but lets queued jobs drain;
// cancel_pending() additionally strips the still-queued jobs and hands
// them back so the owner can resolve their futures as cancelled.
#pragma once

#include <chrono>
#include <deque>
#include <mutex>
#include <set>
#include <vector>

#include "src/serve/request.hpp"

#include <condition_variable>
#include <cstdint>
#include <memory>

namespace ataman::serve {

class StreamSession;

struct QueuedJob {
  uint64_t id = 0;  // submission order, unique per server
  InferRequest request;
  std::shared_ptr<detail::FutureState> state;
  std::chrono::steady_clock::time_point enqueued{};
  // Non-null: this job is one frame of a streaming session and
  // request.image holds the frame's new columns, not a full window.
  std::shared_ptr<StreamSession> session;
};

class RequestQueue {
 public:
  // `workers`: the executor threads draining the queue (the fair-share
  // divisor of one-shot batches).
  explicit RequestQueue(int max_batch, int workers = 1);

  // Enqueue one job; false (job untouched) once the queue is closed.
  bool push(QueuedJob job);

  // Blocks until an eligible job is available or the queue is closed and
  // drained; extracts one micro-batch into `out` (cleared first). A
  // popped session batch marks the session busy — the worker MUST call
  // session_done() after executing it, or the session's later frames
  // deadlock. False means closed-and-empty: the calling worker should
  // exit. (Frames of a busy session left behind at close() still drain:
  // the worker holding the session wakes the queue via session_done.)
  bool pop_batch(std::vector<QueuedJob>& out);

  // Releases a session's exclusive-execution slot after a popped session
  // batch finished (success or failure), making its queued frames
  // eligible again.
  void session_done(uint64_t session_id);

  // Stop accepting jobs; queued ones still drain through pop_batch.
  void close();

  // close() plus: remove every still-queued job and return them (the
  // server resolves their futures as cancelled). In-flight jobs already
  // popped by workers are unaffected.
  std::vector<QueuedJob> cancel_pending();

  int size() const;

  // Batching key equality: same backend name and same SkipMask object.
  // Mask identity (not content) is deliberate: the mask is a non-owning
  // pointer the caller keeps alive, so pointer equality is the only
  // comparison that is both cheap and lifetime-safe.
  static bool same_key(const InferRequest& a, const InferRequest& b);

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<QueuedJob> jobs_;
  std::set<uint64_t> busy_sessions_;  // sessions with an in-flight batch
  const int max_batch_;
  const int workers_;
  bool closed_ = false;
};

}  // namespace ataman::serve
