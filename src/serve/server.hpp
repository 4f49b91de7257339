// Batched asynchronous inference server — the throughput-oriented
// runtime layer above the InferenceEngine seam.
//
//   submit() ──> RequestQueue ──> N worker threads ──> InferFuture
//                (micro-batch         (EnginePool:
//                 coalescing by        one engine per
//                 (engine, mask))      worker per key)
//
// Callers enqueue (image, engine-name, skip-mask) jobs and immediately
// get a future; workers pull coalesced same-configuration micro-batches
// and run them back-to-back on their own engine instance, so the packed
// weight streams / unpacked programs stay hot across a batch and no
// engine is ever shared between threads.
//
// Determinism contract (pinned by tests/test_serve.cpp): each request's
// logits/top1 are bitwise identical to serially running the same
// (engine, mask, image) through the registry engine — for ANY worker
// count, batch composition or arrival order. This holds because requests
// are data-independent, every engine run() is a pure function of
// (model, mask, image), and workers never share engine instances.
// Timing/scheduling fields of InferResult are diagnostics, not part of
// the contract.
//
// Threading: workers are plain std::threads, each holding a
// SerialRegionScope so library parallel_for loops issued during a
// request run serially on that worker (no OpenMP team per worker).
// docs/SERVING.md is the handbook.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <condition_variable>

#include "src/serve/engine_pool.hpp"
#include "src/serve/request.hpp"
#include "src/serve/request_queue.hpp"
#include "src/serve/stream_session.hpp"

namespace ataman::serve {

struct ServeOptions {
  int workers = 4;    // executor threads (>= 1)
  int max_batch = 8;  // micro-batch coalescing cap (>= 1; 1 = no batching)
};

// Counter snapshot; all values monotone over the server's life.
struct ServeStats {
  int64_t submitted = 0;       // accepted requests
  int64_t completed = 0;       // futures resolved by execution (ok or error)
  int64_t cancelled = 0;       // futures resolved by shutdown cancellation
  int64_t batches = 0;         // micro-batches executed
  int64_t coalesced = 0;       // requests that rode a batch of size > 1
  int64_t max_batch_seen = 0;  // largest micro-batch executed
  int64_t sessions = 0;            // streaming sessions opened
  int64_t session_frames = 0;      // session frames that completed
  int64_t incremental_frames = 0;  // of those, spliced at least one element
  EnginePoolStats pool{};
  std::vector<int64_t> per_worker;  // requests executed per worker
};

class InferenceServer {
 public:
  // `model` must outlive the server. Workers start immediately.
  explicit InferenceServer(const QModel* model, ServeOptions options = {});
  ~InferenceServer();  // stop(Shutdown::kDrain)

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  // Validates and enqueues one request (image shape, known backend,
  // mask/model consistency — failures throw on the calling thread before
  // anything is queued). Throws once the server has been stopped.
  InferFuture submit(InferRequest request);

  // Convenience fan-in: submit in order, futures in the same order.
  std::vector<InferFuture> submit_all(std::vector<InferRequest> requests);

  // Open a long-lived streaming session pinned to one (engine, mask)
  // configuration. Throws on unknown backends, bad masks, or scored
  // heads. The session outlives the server gracefully: frames pushed
  // after stop() just fail like one-shot submits.
  std::shared_ptr<StreamSession> open_session(StreamSessionOptions options = {});

  // Enqueue the next frame of `session`. `columns` is the s newest
  // [h][s][c] u8 time columns of the sliding window (the session's
  // first frame must be a full window, s == in_w). Frames of one
  // session execute in push order, never concurrently, interleaved
  // fairly with one-shot jobs; the resulting logits/top1 are bitwise
  // identical to running the full assembled window through the engine.
  InferFuture push_frame(const std::shared_ptr<StreamSession>& session,
                         std::vector<uint8_t> columns);

  // Block until every accepted request has been resolved. The server
  // keeps accepting; drain() is a barrier, not a shutdown.
  void drain();

  enum class Shutdown {
    kDrain,          // stop admissions, run everything already queued
    kCancelPending,  // stop admissions, cancel still-queued requests
  };

  // Idempotent; joins the workers. After stop(), submit() and
  // push_frame() throw.
  // kCancelPending resolves still-queued futures as cancelled (their
  // get() throws, cancelled() is true); in-flight batches always finish.
  void stop(Shutdown mode = Shutdown::kDrain);

  ServeStats stats() const;
  int workers() const { return options_.workers; }
  const QModel& model() const { return *model_; }

 private:
  // The admission step of submit and push_frame: creates the future,
  // stamps the enqueue time, assigns the id and counts the job before
  // queueing it. Once stopped it counts nothing and throws
  // "<caller>: server is stopped".
  InferFuture enqueue(QueuedJob job, const char* caller);
  void worker_main(int worker_id);

  const QModel* model_;
  ServeOptions options_;
  RequestQueue queue_;
  EnginePool pool_;
  std::vector<std::thread> threads_;

  mutable std::mutex stats_mutex_;  // guards the fields below
  std::condition_variable drain_cv_;
  uint64_t next_id_ = 0;
  uint64_t next_session_id_ = 0;
  ServeStats stats_;  // `pool` is read from pool_ by stats()

  std::mutex stop_mutex_;  // serializes stop(); protects joined_
  bool joined_ = false;
};

}  // namespace ataman::serve
