#include "src/serve/request_queue.hpp"

#include <algorithm>

#include "src/common/error.hpp"
#include "src/serve/stream_session.hpp"

namespace ataman::serve {

RequestQueue::RequestQueue(int max_batch, int workers)
    : max_batch_(max_batch), workers_(workers) {
  check(max_batch >= 1, "RequestQueue max_batch must be >= 1");
  check(workers >= 1, "RequestQueue workers must be >= 1");
}

bool RequestQueue::same_key(const InferRequest& a, const InferRequest& b) {
  return a.mask == b.mask && a.engine == b.engine;
}

bool RequestQueue::push(QueuedJob job) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return false;
    jobs_.push_back(std::move(job));
  }
  cv_.notify_one();
  return true;
}

bool RequestQueue::pop_batch(std::vector<QueuedJob>& out) {
  out.clear();
  std::unique_lock<std::mutex> lock(mutex_);
  // The head of the batch is the oldest *eligible* job: frames of a
  // session that already has an in-flight batch are skipped (they must
  // wait for session_done), everything else keeps strict FIFO priority.
  auto eligible_head = [&] {
    for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
      if (it->session == nullptr ||
          busy_sessions_.count(it->session->id()) == 0) {
        return it;
      }
    }
    return jobs_.end();
  };
  std::deque<QueuedJob>::iterator head;
  cv_.wait(lock, [&] {
    head = eligible_head();
    // Ineligible leftovers after close() are not "drained": the worker
    // holding their session will call session_done and wake us.
    return head != jobs_.end() || (closed_ && jobs_.empty());
  });
  if (head == jobs_.end()) return false;  // closed and drained

  out.push_back(std::move(*head));
  jobs_.erase(head);
  const StreamSession* session = out.front().session.get();
  // Session batches take only frames of the same session; one-shot
  // batches take only one-shots sharing the head's (engine, mask) key.
  const auto compatible = [&](const QueuedJob& job) {
    return session != nullptr ? job.session.get() == session
                              : job.session == nullptr &&
                                    same_key(out.front().request, job.request);
  };
  // A one-shot batch takes at most its fair share of its key's queue,
  // ceil(queued / workers), so a burst spreads over idle workers.
  int cap = max_batch_;
  if (session == nullptr) {
    const auto queued =
        1 + static_cast<int>(std::count_if(jobs_.begin(), jobs_.end(),
                                           compatible));
    cap = std::min(cap, (queued + workers_ - 1) / workers_);
  }
  // Coalesce later compatible arrivals (arrival order preserved — we
  // scan front to back and never reorder survivors).
  for (auto it = jobs_.begin();
       it != jobs_.end() && static_cast<int>(out.size()) < cap;) {
    if (compatible(*it)) {
      out.push_back(std::move(*it));
      it = jobs_.erase(it);
    } else {
      ++it;
    }
  }
  if (session != nullptr) busy_sessions_.insert(session->id());
  return true;
}

void RequestQueue::session_done(uint64_t session_id) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    busy_sessions_.erase(session_id);
  }
  cv_.notify_all();
}

void RequestQueue::close() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::vector<QueuedJob> RequestQueue::cancel_pending() {
  std::vector<QueuedJob> cancelled;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    cancelled.reserve(jobs_.size());
    while (!jobs_.empty()) {
      cancelled.push_back(std::move(jobs_.front()));
      jobs_.pop_front();
    }
  }
  cv_.notify_all();
  return cancelled;
}

int RequestQueue::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(jobs_.size());
}

}  // namespace ataman::serve
