#include "src/serve/server.hpp"

#include <algorithm>
#include <chrono>

#include "src/common/parallel.hpp"
#include "src/nn/skip_mask.hpp"

namespace ataman::serve {

namespace {

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

InferenceServer::InferenceServer(const QModel* model, ServeOptions options)
    : model_(model),
      options_(options),
      queue_(options.max_batch, options.workers),
      pool_(model, options.workers) {
  check(model != nullptr, "InferenceServer needs a model");
  check(options_.workers >= 1, "InferenceServer needs at least one worker");
  stats_.per_worker.assign(static_cast<size_t>(options_.workers), 0);
  threads_.reserve(static_cast<size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w) {
    threads_.emplace_back([this, w] { worker_main(w); });
  }
}

InferenceServer::~InferenceServer() { stop(Shutdown::kDrain); }

InferFuture InferenceServer::submit(InferRequest request) {
  // Fail on the caller's thread, before anything is queued.
  const QModel& m = *model_;
  const int64_t expected = static_cast<int64_t>(m.in_h) * m.in_w * m.in_c;
  // Runs on every request: no message is built unless a check fails.
  if (static_cast<int64_t>(request.image.size()) != expected)
    fail("submit: image size " + std::to_string(request.image.size()) +
         " does not match model input " + std::to_string(expected));
  if (!EngineRegistry::instance().contains(request.engine))
    fail("submit: unknown engine '" + request.engine + "'");
  if (request.mask != nullptr) request.mask->validate(m);
  QueuedJob job;
  job.request = std::move(request);
  return enqueue(std::move(job), "submit");
}

std::vector<InferFuture> InferenceServer::submit_all(
    std::vector<InferRequest> requests) {
  std::vector<InferFuture> futures;
  futures.reserve(requests.size());
  for (InferRequest& r : requests) futures.push_back(submit(std::move(r)));
  return futures;
}

std::shared_ptr<StreamSession> InferenceServer::open_session(
    StreamSessionOptions options) {
  check(EngineRegistry::instance().contains(options.engine),
        "open_session: unknown engine '" + options.engine + "'");
  if (options.mask != nullptr) options.mask->validate(*model_);
  uint64_t id;
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    id = next_session_id_++;
  }
  // The constructor validates the head kind; count the session only once
  // it exists.
  std::shared_ptr<StreamSession> session(
      new StreamSession(id, model_, std::move(options)));
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.sessions;
  }
  return session;
}

InferFuture InferenceServer::push_frame(
    const std::shared_ptr<StreamSession>& session,
    std::vector<uint8_t> columns) {
  check(session != nullptr, "push_frame: null session");
  // Fail on the caller's thread, before anything is queued.
  session->validate_push(columns.size());
  // The frame carries its session's (engine, mask) key like a one-shot.
  QueuedJob job;
  job.request = {session->options().engine, session->options().mask,
                 std::move(columns)};
  job.session = session;
  return enqueue(std::move(job), "push_frame");
}

InferFuture InferenceServer::enqueue(QueuedJob job, const char* caller) {
  job.state = std::make_shared<detail::FutureState>();
  job.enqueued = std::chrono::steady_clock::now();
  InferFuture future(job.state);
  {
    // Count before pushing so drain() can never observe a resolved job
    // that was not yet counted as submitted.
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    job.id = next_id_++;
    ++stats_.submitted;
  }
  if (!queue_.push(std::move(job))) {
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      --stats_.submitted;
    }
    drain_cv_.notify_all();
    fail(std::string(caller) + ": server is stopped");
  }
  return future;
}

void InferenceServer::worker_main(int worker_id) {
  // One lane of the serving pool: any parallel_for issued while running
  // a request stays serial on this thread (see parallel.hpp).
  const SerialRegionScope serial;
  std::vector<QueuedJob> batch;
  while (queue_.pop_batch(batch)) {
    // Every job of a batch shares one (engine, mask) key; a session
    // batch holds consecutive frames of one session, in push order.
    const InferRequest& key = batch.front().request;
    const std::shared_ptr<StreamSession> session = batch.front().session;
    const auto fail_all = [&](const std::string& message) {
      for (QueuedJob& job : batch)
        job.state->fail_with(message, /*was_cancelled=*/false);
    };
    const auto complete = [&](QueuedJob& job, InferResult r,
                              std::chrono::steady_clock::time_point start,
                              std::chrono::steady_clock::time_point end) {
      r.queue_ms = ms_between(job.enqueued, start);
      r.run_ms = ms_between(start, end);
      r.worker = worker_id;
      r.batch_size = static_cast<int>(batch.size());
      job.state->complete(std::move(r));
    };

    InferenceEngine* engine = nullptr;
    try {
      engine = &pool_.engine_for(worker_id, key.engine, key.mask);
    } catch (const std::exception& e) {
      fail_all(std::string("engine setup failed: ") + e.what());
    }

    int64_t frames = 0, incremental = 0;  // session frames that completed
    if (engine != nullptr && session != nullptr) {
      // The queue guarantees exclusivity (no other worker holds this
      // session until session_done), so the session's cross-frame state
      // is touched single-threaded; frames execute one by one — each
      // depends on the previous frame's ring.
      for (QueuedJob& job : batch) {
        const auto start = std::chrono::steady_clock::now();
        try {
          InferResult r = session->execute_frame(*engine, job.request.image);
          const auto end = std::chrono::steady_clock::now();
          ++frames;
          if (session->last_frame_spliced()) ++incremental;
          complete(job, std::move(r), start, end);
        } catch (const std::exception& e) {
          job.state->fail_with(e.what(), /*was_cancelled=*/false);
        }
      }
    } else if (engine != nullptr) {
      // One run_batch call executes the whole coalesced batch, so the
      // engine's batch-amortized kernels engage — same numerics as
      // per-image run() by contract, which keeps the serve determinism
      // guarantee intact for any worker count, batch size, or arrival
      // order. A kernel error fails every request in the batch: there is
      // no per-image retry state once execution is fused.
      const auto start = std::chrono::steady_clock::now();
      std::vector<std::span<const uint8_t>> images;
      images.reserve(batch.size());
      for (const QueuedJob& job : batch) images.push_back(job.request.image);
      std::vector<std::vector<int8_t>> logits;
      bool ran = true;
      try {
        engine->run_batch(images, logits);
      } catch (const std::exception& e) {
        fail_all(e.what());
        ran = false;
      }
      const auto end = std::chrono::steady_clock::now();
      for (size_t i = 0; ran && i < batch.size(); ++i) {
        QueuedJob& job = batch[i];
        InferResult r;
        r.logits = std::move(logits[i]);
        try {
          // The head reduction rejects a model whose head does not fit
          // its last layer; that fails the request, not the worker.
          if (engine->model().head == TaskHead::kScore) {
            r.score = reconstruction_score(
                engine->model(), engine->quantize_input(job.request.image),
                r.logits);
            r.top1 = scored_class(engine->model(), r.score);
          } else {
            r.top1 = argmax_lowest_index(r.logits);
          }
        } catch (const std::exception& e) {
          job.state->fail_with(e.what(), /*was_cancelled=*/false);
          continue;
        }
        complete(job, std::move(r), start, end);  // run_ms: batch wall time
      }
    }
    if (session != nullptr) queue_.session_done(session->id());

    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      const int64_t n = static_cast<int64_t>(batch.size());
      stats_.completed += n;
      ++stats_.batches;
      if (n > 1) stats_.coalesced += n;
      stats_.max_batch_seen = std::max(stats_.max_batch_seen, n);
      stats_.session_frames += frames;
      stats_.incremental_frames += incremental;
      stats_.per_worker[static_cast<size_t>(worker_id)] += n;
    }
    drain_cv_.notify_all();
  }
}

void InferenceServer::drain() {
  std::unique_lock<std::mutex> lock(stats_mutex_);
  drain_cv_.wait(lock, [&] {
    return stats_.completed + stats_.cancelled >= stats_.submitted;
  });
}

void InferenceServer::stop(Shutdown mode) {
  const std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  if (mode == Shutdown::kCancelPending) {
    std::vector<QueuedJob> pending = queue_.cancel_pending();
    if (!pending.empty()) {
      // Count before resolving: anyone woken by a cancelled future must
      // already see it in stats().cancelled.
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.cancelled += static_cast<int64_t>(pending.size());
    }
    for (QueuedJob& job : pending) {
      job.state->fail_with(
          "request cancelled: server shut down with pending requests",
          /*was_cancelled=*/true);
    }
    drain_cv_.notify_all();
  } else {
    queue_.close();
  }
  if (!joined_) {
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    joined_ = true;
  }
}

ServeStats InferenceServer::stats() const {
  ServeStats s;
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    s = stats_;
  }
  s.pool = pool_.stats();
  return s;
}

}  // namespace ataman::serve
