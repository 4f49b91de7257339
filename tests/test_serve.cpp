// The serve runtime (src/serve): bitwise determinism under concurrent,
// mixed-configuration load; micro-batch coalescing policy and fairness;
// shutdown-with-pending-requests semantics; engine-pool reuse accounting;
// engine-setup and kernel failures failing their whole batch, and a bad
// scored head failing one request, never the worker;
// and the xcube clone/worker-isolation audit (one const engine shared
// across threads — every call walks its plan over a call-local arena).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/engine_iface.hpp"
#include "src/nn/engine.hpp"
#include "src/nn/skip_mask.hpp"
#include "src/serve/server.hpp"
#include "tests/test_util.hpp"

namespace ataman {
namespace {

using serve::InferenceServer;
using serve::InferFuture;
using serve::InferRequest;
using serve::QueuedJob;
using serve::RequestQueue;
using serve::ServeOptions;
using serve::ServeStats;
using testing::make_random_image;
using testing::make_tiny_qmodel;

constexpr int kImagePixels = 12 * 12 * 3;

SkipMask make_random_mask(const QModel& model, double density,
                          uint64_t seed) {
  SkipMask mask = SkipMask::none(model);
  Rng rng(seed);
  for (auto& layer : mask.masks)
    for (auto& s : layer) s = rng.next_bool(density) ? 1 : 0;
  return mask;
}

// One (backend, mask) serving configuration plus its serial oracle.
struct ServeKey {
  std::string engine;
  const SkipMask* mask = nullptr;
};

// Serial single-request oracle: the same (engine, mask, image) through a
// freshly built registry engine — what the determinism contract promises
// the server matches bitwise.
std::vector<std::vector<int8_t>> serial_logits(
    const QModel& model, const std::vector<ServeKey>& keys,
    const std::vector<InferRequest>& requests) {
  std::vector<std::vector<int8_t>> expected;
  expected.reserve(requests.size());
  for (const InferRequest& r : requests) {
    (void)keys;
    EngineConfig cfg;
    cfg.model = &model;
    cfg.mask = r.mask;
    const auto engine = EngineRegistry::instance().create(r.engine, cfg);
    expected.push_back(engine->run(r.image));
  }
  return expected;
}

std::vector<InferRequest> make_mixed_requests(const std::vector<ServeKey>& keys,
                                              int count, uint64_t seed) {
  std::vector<InferRequest> requests;
  requests.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const ServeKey& key = keys[static_cast<size_t>(i) % keys.size()];
    InferRequest r;
    r.engine = key.engine;
    r.mask = key.mask;
    r.image = make_random_image(kImagePixels, seed + static_cast<uint64_t>(i));
    requests.push_back(std::move(r));
  }
  return requests;
}

// ---------------------------------------------------------------------------
// RequestQueue: the coalescing policy in isolation
// ---------------------------------------------------------------------------

QueuedJob make_job(uint64_t id, const std::string& engine,
                   const SkipMask* mask) {
  QueuedJob job;
  job.id = id;
  job.request.engine = engine;
  job.request.mask = mask;
  job.state = std::make_shared<serve::detail::FutureState>();
  return job;
}

TEST(RequestQueue, CoalescesHeadKeyPreservingOrderAndFairness) {
  const QModel m = make_tiny_qmodel(600);
  const SkipMask mask = make_random_mask(m, 0.3, 601);
  RequestQueue queue(/*max_batch=*/3);
  // Arrival: A B A A B A  (A = masked ref, B = exact cmsis).
  ASSERT_TRUE(queue.push(make_job(0, "ref", &mask)));
  ASSERT_TRUE(queue.push(make_job(1, "cmsis", nullptr)));
  ASSERT_TRUE(queue.push(make_job(2, "ref", &mask)));
  ASSERT_TRUE(queue.push(make_job(3, "ref", &mask)));
  ASSERT_TRUE(queue.push(make_job(4, "cmsis", nullptr)));
  ASSERT_TRUE(queue.push(make_job(5, "ref", &mask)));

  std::vector<QueuedJob> batch;
  // Head is A: coalesce the two next As (cap 3), Bs keep their position.
  ASSERT_TRUE(queue.pop_batch(batch));
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].id, 0u);
  EXPECT_EQ(batch[1].id, 2u);
  EXPECT_EQ(batch[2].id, 3u);
  // Next head is B (fairness: the A flood did not starve it).
  ASSERT_TRUE(queue.pop_batch(batch));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 1u);
  EXPECT_EQ(batch[1].id, 4u);
  ASSERT_TRUE(queue.pop_batch(batch));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 5u);

  // Same engine, different mask -> different key, never coalesced.
  const SkipMask other = make_random_mask(m, 0.3, 602);
  ASSERT_TRUE(queue.push(make_job(6, "ref", &mask)));
  ASSERT_TRUE(queue.push(make_job(7, "ref", &other)));
  ASSERT_TRUE(queue.pop_batch(batch));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 6u);

  // close(): pushes rejected, queued jobs drain, then pop returns false.
  queue.close();
  EXPECT_FALSE(queue.push(make_job(8, "ref", nullptr)));
  ASSERT_TRUE(queue.pop_batch(batch));
  EXPECT_EQ(batch[0].id, 7u);
  EXPECT_FALSE(queue.pop_batch(batch));

  RequestQueue cancel_queue(4);
  ASSERT_TRUE(cancel_queue.push(make_job(0, "ref", nullptr)));
  ASSERT_TRUE(cancel_queue.push(make_job(1, "ref", nullptr)));
  const std::vector<QueuedJob> pending = cancel_queue.cancel_pending();
  EXPECT_EQ(pending.size(), 2u);
  EXPECT_EQ(cancel_queue.size(), 0);
  EXPECT_FALSE(cancel_queue.pop_batch(batch));
}

TEST(RequestQueue, OneShotBatchTakesItsFairShareOfItsKey) {
  // 16 queued one-shots of one key on 4 workers: each pop takes
  // ceil(queued / 4) of them, never more than max_batch, so the first
  // four idle workers split the burst instead of two of them taking two
  // full batches of 8.
  const QModel m = make_tiny_qmodel(603);
  const SkipMask mask = make_random_mask(m, 0.3, 604);
  RequestQueue queue(/*max_batch=*/8, /*workers=*/4);
  for (uint64_t id = 0; id < 16; ++id)
    ASSERT_TRUE(queue.push(make_job(id, "ref", &mask)));
  std::vector<QueuedJob> batch;
  uint64_t next_id = 0;
  for (const size_t want : {4u, 3u, 3u, 2u, 1u, 1u, 1u, 1u}) {
    ASSERT_TRUE(queue.pop_batch(batch));
    ASSERT_EQ(batch.size(), want) << "first id " << next_id;
    for (const QueuedJob& job : batch) EXPECT_EQ(job.id, next_id++);
  }
  EXPECT_EQ(queue.size(), 0);

  // Other keys do not count towards the head key's share, and the cap
  // never exceeds max_batch.
  RequestQueue wide(/*max_batch=*/2, /*workers=*/1);
  ASSERT_TRUE(wide.push(make_job(20, "ref", &mask)));
  ASSERT_TRUE(wide.push(make_job(21, "cmsis", nullptr)));
  ASSERT_TRUE(wide.push(make_job(22, "ref", &mask)));
  ASSERT_TRUE(wide.push(make_job(23, "ref", &mask)));
  ASSERT_TRUE(wide.pop_batch(batch));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[1].id, 22u);
}

// ---------------------------------------------------------------------------
// Determinism under load
// ---------------------------------------------------------------------------

TEST(ServeDeterminism, IdenticalLogitsAcrossWorkersBatchingAndArrivalOrder) {
  const QModel m = make_tiny_qmodel(610);
  const SkipMask mask_a = make_random_mask(m, 0.25, 611);
  const SkipMask mask_b = make_random_mask(m, 0.45, 612);
  const std::vector<ServeKey> keys = {
      {"ref", &mask_a},    {"ref", nullptr},   {"unpacked", &mask_a},
      {"unpacked", &mask_b}, {"cmsis", nullptr}, {"xcube", nullptr},
  };
  const std::vector<InferRequest> requests =
      make_mixed_requests(keys, 48, 6100);
  const std::vector<std::vector<int8_t>> expected =
      serial_logits(m, keys, requests);

  for (const int workers : {1, 2, 8}) {
    for (const int max_batch : {1, 8}) {
      for (const uint64_t shuffle_seed : {0ull, 1ull, 2ull}) {
        // Shuffled arrival order; futures indexed back to request index.
        std::vector<size_t> order(requests.size());
        std::iota(order.begin(), order.end(), size_t{0});
        if (shuffle_seed != 0) {
          Rng rng(6200 + shuffle_seed);
          for (size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1],
                      order[static_cast<size_t>(rng.next_below(i))]);
        }

        ServeOptions options;
        options.workers = workers;
        options.max_batch = max_batch;
        InferenceServer server(&m, options);
        std::vector<InferFuture> futures(requests.size());
        for (const size_t idx : order) {
          futures[idx] = server.submit(requests[idx]);  // copies the image
        }
        server.drain();

        for (size_t i = 0; i < requests.size(); ++i) {
          const serve::InferResult r = futures[i].get();
          EXPECT_EQ(r.logits, expected[i])
              << "workers=" << workers << " max_batch=" << max_batch
              << " shuffle=" << shuffle_seed << " request " << i;
          EXPECT_EQ(r.top1, argmax_lowest_index(expected[i]));
          EXPECT_GE(r.worker, 0);
          EXPECT_LT(r.worker, workers);
          EXPECT_GE(r.batch_size, 1);
          EXPECT_LE(r.batch_size, max_batch);
          EXPECT_GE(r.queue_ms, 0.0);
          EXPECT_GE(r.run_ms, 0.0);
        }
        const ServeStats stats = server.stats();
        EXPECT_EQ(stats.submitted, 48);
        EXPECT_EQ(stats.completed, 48);
        EXPECT_EQ(stats.cancelled, 0);
        EXPECT_EQ(std::accumulate(stats.per_worker.begin(),
                                  stats.per_worker.end(), int64_t{0}),
                  48);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Mixed-engine batching correctness + coalescing evidence
// ---------------------------------------------------------------------------

TEST(ServeBatching, MixedEngineTrafficCoalescesAndStaysCorrect) {
  const QModel m = make_tiny_qmodel(620);
  const SkipMask mask = make_random_mask(m, 0.3, 621);
  const std::vector<ServeKey> keys = {{"unpacked", &mask}, {"cmsis", nullptr}};
  const std::vector<InferRequest> requests =
      make_mixed_requests(keys, 120, 6300);
  const std::vector<std::vector<int8_t>> expected =
      serial_logits(m, keys, requests);

  ServeOptions options;
  options.workers = 2;
  options.max_batch = 8;
  InferenceServer server(&m, options);
  const std::vector<InferFuture> futures =
      server.submit_all(std::vector<InferRequest>(requests));
  server.drain();

  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(futures[i].get().logits, expected[i]) << "request " << i;
  }
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.completed, 120);
  // 120 near-instant submissions against 2 workers: the queue must have
  // built up, so at least one micro-batch really coalesced.
  EXPECT_GE(stats.max_batch_seen, 2);
  EXPECT_GT(stats.coalesced, 0);
  EXPECT_LT(stats.batches, stats.completed);
}

// ---------------------------------------------------------------------------
// Shutdown with pending requests
// ---------------------------------------------------------------------------

// Test-owned gate shared by every GateEngine clone: a run blocks until
// the test releases it, making "worker busy while the queue is full"
// deterministic instead of a scheduling race.
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool entered = false;
  bool released = false;
};

// Reference kernels behind the gate: a plan walk blocks on its first
// step until the test releases the gate.
class GateKernels final : public KernelTable {
 public:
  GateKernels(const QModel* model, Gate* gate)
      : ref_(model, nullptr), gate_(gate) {}

  void run_step(const ExecStep& step, const StepIO& io) const override {
    if (step.layer == 0) {
      std::unique_lock<std::mutex> lock(gate_->mutex);
      gate_->entered = true;
      gate_->cv.notify_all();
      gate_->cv.wait(lock, [&] { return gate_->released; });
    }
    ref_.run_step(step, io);
  }

 private:
  RefKernels ref_;
  Gate* gate_;
};

class GateEngine final : public InferenceEngine {
 public:
  GateEngine(const QModel* model, Gate* gate)
      : InferenceEngine(model, nullptr, "serve-gate"), kernels_(model, gate) {}

  std::unique_ptr<InferenceEngine> clone() const override {
    return std::make_unique<GateEngine>(*this);
  }

 private:
  const KernelTable& kernels() const override { return kernels_; }

  GateKernels kernels_;
};

TEST(ServeShutdown, CancelPendingResolvesEveryFutureWithoutHanging) {
  const QModel m = make_tiny_qmodel(630);
  Gate gate;
  EngineRegistry::instance().register_engine(
      "serve-gate", [&m, &gate](const EngineConfig& cfg) {
        return std::make_unique<GateEngine>(cfg.model, &gate);
      });

  ServeOptions options;
  options.workers = 1;
  options.max_batch = 1;
  auto server = std::make_unique<InferenceServer>(&m, options);

  // First job blocks the only worker on the gate; 30 more pile up behind.
  InferRequest gate_request;
  gate_request.engine = "serve-gate";
  gate_request.image = make_random_image(kImagePixels, 6400);
  const InferFuture gate_future = server->submit(gate_request);
  std::vector<InferFuture> pending;
  for (int i = 0; i < 30; ++i) {
    InferRequest r;
    r.engine = "ref";
    r.image = make_random_image(kImagePixels, 6401 + i);
    pending.push_back(server->submit(r));
  }
  {
    std::unique_lock<std::mutex> lock(gate.mutex);
    gate.cv.wait(lock, [&] { return gate.entered; });
  }

  // stop(kCancelPending) cancels the 30 queued jobs immediately, then
  // blocks joining the gated worker — run it on a helper thread.
  std::thread stopper([&] {
    server->stop(InferenceServer::Shutdown::kCancelPending);
  });
  for (const InferFuture& f : pending) {
    f.wait();  // resolved (as cancelled) while the worker is still gated
    EXPECT_TRUE(f.cancelled());
    EXPECT_THROW(f.get(), Error);
  }
  EXPECT_EQ(server->stats().cancelled, 30);
  EXPECT_FALSE(gate_future.ready());  // in-flight, not cancelled

  {
    const std::lock_guard<std::mutex> lock(gate.mutex);
    gate.released = true;
  }
  gate.cv.notify_all();
  stopper.join();

  // The in-flight request still completed exactly.
  const serve::InferResult gated = gate_future.get();
  EXPECT_EQ(gated.logits, RefEngine(&m).run(gate_request.image));
  const ServeStats stats = server->stats();
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.cancelled, 30);
  EXPECT_EQ(stats.submitted, 31);

  // Stopped server rejects new work; destruction after stop() is clean.
  InferRequest late;
  late.engine = "ref";
  late.image = make_random_image(kImagePixels, 6499);
  EXPECT_THROW(server->submit(late), Error);
  server.reset();

  // The registry is process-global and has no unregister: replace the
  // factory (it captured this test's stack frame) with a self-contained
  // one so later tests enumerating/creating every backend can't touch
  // dangling pointers.
  EngineRegistry::instance().register_engine(
      "serve-gate", [](const EngineConfig& cfg) {
        return std::make_unique<RefEngine>(cfg.model);
      });
}

TEST(ServeShutdown, PushFrameAfterStopThrowsAndCountsNothing) {
  const QModel m = make_tiny_qmodel(632);
  InferenceServer server(&m, ServeOptions{.workers = 1, .max_batch = 2});
  const auto session = server.open_session();
  const std::vector<uint8_t> window = make_random_image(kImagePixels, 6450);
  const InferFuture first = server.push_frame(session, window);
  server.stop();
  EXPECT_EQ(first.get().logits, RefEngine(&m).run(window));
  EXPECT_EQ(server.stats().submitted, 1);

  // One new column after the full first window: a well-formed push.
  const std::vector<uint8_t> column =
      make_random_image(m.in_h * m.in_c, 6451);
  EXPECT_THROW(server.push_frame(session, column), Error);
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.completed, 1);
}

// ---------------------------------------------------------------------------
// Execution failures: a batch fails as a unit, the server keeps serving
// ---------------------------------------------------------------------------

// The message a resolved future failed with; "" when it succeeded.
std::string error_of(const InferFuture& future) {
  try {
    future.get();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// A backend whose engine can never be built: every one-shot and every
// session frame routed to it fails with "engine setup failed", while
// other configurations on the same server keep completing bitwise.
TEST(ServeErrors, EngineSetupFailureFailsItsBatchesAndTheServerKeepsServing) {
  EngineRegistry::instance().register_engine(
      "serve-broken",
      [](const EngineConfig&) -> std::unique_ptr<InferenceEngine> {
        fail("serve-broken: engine refused to build");
      });
  const QModel m = make_tiny_qmodel(634);
  InferenceServer server(&m, ServeOptions{.workers = 2, .max_batch = 4});

  std::vector<InferFuture> broken;
  std::vector<InferFuture> good;
  std::vector<std::vector<uint8_t>> good_images;
  for (int i = 0; i < 8; ++i) {
    InferRequest r;
    r.engine = "serve-broken";
    r.image = make_random_image(kImagePixels, 6460 + i);
    broken.push_back(server.submit(std::move(r)));
    InferRequest ok;
    ok.engine = "ref";
    ok.image = make_random_image(kImagePixels, 6470 + i);
    good_images.push_back(ok.image);
    good.push_back(server.submit(std::move(ok)));
  }
  serve::StreamSessionOptions session_options;
  session_options.engine = "serve-broken";
  const auto session = server.open_session(session_options);
  broken.push_back(
      server.push_frame(session, make_random_image(kImagePixels, 6480)));
  for (int i = 1; i < 4; ++i) {
    broken.push_back(server.push_frame(
        session, make_random_image(m.in_h * m.in_c, 6480 + i)));
  }
  server.drain();

  for (size_t i = 0; i < broken.size(); ++i) {
    EXPECT_NE(error_of(broken[i]).find("engine setup failed"),
              std::string::npos)
        << "job " << i << ": " << error_of(broken[i]);
  }
  for (size_t i = 0; i < good.size(); ++i)
    EXPECT_EQ(good[i].get().logits, RefEngine(&m).run(good_images[i])) << i;
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 20);
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.cancelled, 0);
  // Only frames that completed count as session frames; none did.
  EXPECT_EQ(session->stats().frames, 0);
  EXPECT_EQ(stats.session_frames, session->stats().frames);

  // Later tests may create every registered backend.
  EngineRegistry::instance().register_engine(
      "serve-broken", [](const EngineConfig& cfg) {
        return std::make_unique<RefEngine>(cfg.model);
      });
}

// The pool remembers a key whose engine failed to build: later batches of
// that key fail with the same message without calling the factory again.
TEST(ServeErrors, FailedEngineBuildIsNotRetriedByLaterBatches) {
  static std::atomic<int> builds{0};
  builds = 0;
  EngineRegistry::instance().register_engine(
      "serve-counted-broken",
      [](const EngineConfig&) -> std::unique_ptr<InferenceEngine> {
        ++builds;
        throw Error("serve-counted-broken: engine refused to build");
      });
  const QModel m = make_tiny_qmodel(635);
  InferenceServer server(&m, ServeOptions{.workers = 1, .max_batch = 1});

  std::vector<InferFuture> futures;
  for (int i = 0; i < 4; ++i) {
    InferRequest r;
    r.engine = "serve-counted-broken";
    r.image = make_random_image(kImagePixels, 6490 + i);
    futures.push_back(server.submit(std::move(r)));
  }
  server.drain();

  for (size_t i = 0; i < futures.size(); ++i) {
    const std::string error = error_of(futures[i]);
    EXPECT_TRUE(error.ends_with("engine setup failed: serve-counted-broken: "
                                "engine refused to build"))
        << "job " << i << ": " << error;
  }
  EXPECT_EQ(server.stats().batches, 4);
  EXPECT_EQ(builds, 1);

  EngineRegistry::instance().register_engine(
      "serve-counted-broken", [](const EngineConfig& cfg) {
        return std::make_unique<RefEngine>(cfg.model);
      });
}

// Reference kernels that throw on a batch holding a poisoned (constant)
// input image. One run_batch executes the whole micro-batch, so the
// poisoned image's batch-mates fail with it.
class FaultyKernels final : public KernelTable {
 public:
  explicit FaultyKernels(const QModel* model) : ref_(model, nullptr) {}

  void run_step(const ExecStep& step, const StepIO& io) const override {
    if (step.layer == 0) {
      for (int b = 0; b < io.batch; ++b) {
        const std::span<const int8_t> in = io.image(b).in_a;
        if (std::all_of(in.begin(), in.end(),
                        [&](int8_t v) { return v == in[0]; }))
          fail("faulty kernel: poisoned image");
      }
    }
    ref_.run_step(step, io);
  }

 private:
  RefKernels ref_;
};

class FaultyEngine final : public InferenceEngine {
 public:
  explicit FaultyEngine(const QModel* model)
      : InferenceEngine(model, nullptr, "serve-faulty"), kernels_(model) {}

  std::unique_ptr<InferenceEngine> clone() const override {
    return std::make_unique<FaultyEngine>(*this);
  }

 private:
  const KernelTable& kernels() const override { return kernels_; }

  FaultyKernels kernels_;
};

TEST(ServeErrors, KernelFailureFailsEveryJobOfItsBatchAndOnlyThatBatch) {
  const QModel m = make_tiny_qmodel(636);
  Gate gate;
  EngineRegistry::instance().register_engine(
      "serve-gate", [&gate](const EngineConfig& cfg) {
        return std::make_unique<GateEngine>(cfg.model, &gate);
      });
  EngineRegistry::instance().register_engine(
      "serve-faulty", [](const EngineConfig& cfg) {
        return std::make_unique<FaultyEngine>(cfg.model);
      });

  // One worker, batches of at most 2. The gated first job holds the
  // worker until every later job is queued, so the batches are fixed:
  // [poisoned, faulty 1] [faulty 2, faulty 3] [ref 0, ref 1].
  InferenceServer server(&m, ServeOptions{.workers = 1, .max_batch = 2});
  InferRequest gate_request;
  gate_request.engine = "serve-gate";
  gate_request.image = make_random_image(kImagePixels, 6490);
  const InferFuture gated = server.submit(gate_request);
  {
    std::unique_lock<std::mutex> lock(gate.mutex);
    gate.cv.wait(lock, [&] { return gate.entered; });
  }

  std::vector<InferRequest> requests(6);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].engine = i < 4 ? "serve-faulty" : "ref";
    requests[i].image = make_random_image(kImagePixels, 6491 + i);
  }
  requests[0].image.assign(kImagePixels, 0);  // the poisoned image
  const std::vector<InferFuture> futures =
      server.submit_all(std::vector<InferRequest>(requests));
  {
    const std::lock_guard<std::mutex> lock(gate.mutex);
    gate.released = true;
  }
  gate.cv.notify_all();
  server.drain();

  EXPECT_EQ(gated.get().logits, RefEngine(&m).run(gate_request.image));
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_NE(error_of(futures[i]).find("faulty kernel: poisoned image"),
              std::string::npos)
        << "job " << i << ": " << error_of(futures[i]);
  }
  for (size_t i = 2; i < futures.size(); ++i) {
    const serve::InferResult r = futures[i].get();
    EXPECT_EQ(r.logits, RefEngine(&m).run(requests[i].image)) << i;
    EXPECT_EQ(r.batch_size, 2) << i;
  }
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 7);
  EXPECT_EQ(stats.completed, 7);
  EXPECT_EQ(stats.batches, 4);
  server.stop();

  // The factories captured this test's stack frame; later tests may
  // create every registered backend.
  for (const char* name : {"serve-gate", "serve-faulty"}) {
    EngineRegistry::instance().register_engine(
        name, [](const EngineConfig& cfg) {
          return std::make_unique<RefEngine>(cfg.model);
        });
  }
}

// ---------------------------------------------------------------------------
// Future handle semantics
// ---------------------------------------------------------------------------

TEST(ServeFuture, HandlesAreReusableAndInvalidOnesThrow) {
  const InferFuture invalid;
  EXPECT_FALSE(invalid.valid());
  EXPECT_THROW(invalid.get(), Error);
  EXPECT_THROW((void)invalid.ready(), Error);

  const QModel m = make_tiny_qmodel(640);
  InferenceServer server(&m, ServeOptions{.workers = 1, .max_batch = 2});
  InferRequest r;
  r.engine = "ref";
  r.image = make_random_image(kImagePixels, 6500);
  const InferFuture future = server.submit(r);
  const InferFuture copy = future;  // copies observe the same slot
  server.drain();
  EXPECT_TRUE(future.ready());
  EXPECT_FALSE(future.cancelled());
  const auto first = future.get();
  const auto again = copy.get();  // get() twice: same bits
  EXPECT_EQ(first.logits, again.logits);
  EXPECT_EQ(first.logits, RefEngine(&m).run(r.image));

  // Submit-side validation fails fast on the caller thread.
  InferRequest bad_shape;
  bad_shape.engine = "ref";
  bad_shape.image.assign(7, 0);
  EXPECT_THROW(server.submit(bad_shape), Error);
  InferRequest bad_engine;
  bad_engine.engine = "no-such-backend";
  bad_engine.image = make_random_image(kImagePixels, 6501);
  EXPECT_THROW(server.submit(bad_engine), Error);
}

// ---------------------------------------------------------------------------
// Engine pool reuse accounting
// ---------------------------------------------------------------------------

TEST(ServePool, EveryBackendKeysPerMaskAndClonesOncePerWorkerAndKey) {
  const QModel m = make_tiny_qmodel(650);
  const SkipMask mask_a = make_random_mask(m, 0.2, 651);
  const SkipMask mask_b = make_random_mask(m, 0.4, 652);
  const SkipMask mask_c = make_random_mask(m, 0.6, 653);

  for (const std::string backend : {"ref", "unpacked"}) {
    // Each engine fixes its mask at construction: one prototype per
    // distinct mask, cloned at most once per (worker, key).
    const std::vector<ServeKey> keys = {
        {backend, &mask_a}, {backend, &mask_b}, {backend, &mask_c}};
    InferenceServer server(&m, ServeOptions{.workers = 2, .max_batch = 4});
    const std::vector<InferRequest> requests =
        make_mixed_requests(keys, 30, 6700);
    const std::vector<std::vector<int8_t>> expected =
        serial_logits(m, keys, requests);
    const auto futures =
        server.submit_all(std::vector<InferRequest>(requests));
    server.drain();
    for (size_t i = 0; i < futures.size(); ++i)
      EXPECT_EQ(futures[i].get().logits, expected[i]) << backend << " " << i;
    const ServeStats stats = server.stats();
    EXPECT_EQ(stats.pool.prototypes_built, 3) << backend;
    EXPECT_GE(stats.pool.engines_cloned, 3) << backend;  // every key ran
    EXPECT_LE(stats.pool.engines_cloned, 6) << backend;  // workers * keys
  }
}

// A scored head on a model whose last layer cannot reconstruct the input
// (load_qmodel rejects it; an in-memory model can still carry it) fails
// its request, not the worker: the server keeps serving.
TEST(ServeScoredHead, MismatchedHeadFailsTheRequestNotTheServer) {
  QModel m = make_tiny_qmodel(670);
  m.head = TaskHead::kScore;
  InferenceServer server(&m, ServeOptions{.workers = 1, .max_batch = 1});
  InferRequest r;
  r.engine = "cmsis";
  r.image = make_random_image(kImagePixels, 6710);
  const InferFuture bad = server.submit(r);
  server.drain();
  EXPECT_THROW(bad.get(), Error);

  // The worker survived: with the head fixed, the next request on the
  // same server completes bitwise.
  m.head = TaskHead::kClassify;
  const InferFuture next = server.submit(r);
  server.drain();
  EXPECT_EQ(next.get().logits, RefEngine(&m).run(r.image));
}

// ---------------------------------------------------------------------------
// xcube clone / worker isolation audit
// ---------------------------------------------------------------------------

TEST(ServeXCube, CloneIsCheapEquivalentAndSafeAcrossWorkers) {
  const QModel m = make_tiny_qmodel(660);
  EngineConfig cfg;
  cfg.model = &m;
  const auto original = EngineRegistry::instance().create("xcube", cfg);
  const auto clone = original->clone();
  ASSERT_NE(clone, nullptr);
  // The clone carries identical modeled costs (constructor-computed
  // state copied, not re-derived).
  EXPECT_EQ(clone->total_cycles(), original->total_cycles());
  EXPECT_EQ(clone->flash_bytes(), original->flash_bytes());
  EXPECT_EQ(clone->ram_bytes(), original->ram_bytes());

  // Stateless-after-construction audit: hammer BOTH the original and its
  // clone from concurrent threads; every logit vector must match the
  // serial reference. (The pool never shares instances across workers —
  // this pins down that even sharing would be safe today: the engine
  // holds no mutable state.)
  const RefEngine oracle(&m);
  constexpr int kThreads = 4, kImagesPerThread = 10;
  std::vector<std::vector<std::vector<int8_t>>> got(
      kThreads, std::vector<std::vector<int8_t>>(kImagesPerThread));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kImagesPerThread; ++i) {
        const auto img =
            make_random_image(kImagePixels, 6800 + t * kImagesPerThread + i);
        const InferenceEngine& engine = (t % 2 == 0) ? *original : *clone;
        got[static_cast<size_t>(t)][static_cast<size_t>(i)] =
            engine.run(img);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kImagesPerThread; ++i) {
      const auto img =
          make_random_image(kImagePixels, 6800 + t * kImagesPerThread + i);
      EXPECT_EQ(got[static_cast<size_t>(t)][static_cast<size_t>(i)],
                oracle.run(img))
          << "thread " << t << " image " << i;
    }
  }

  // And through the server at 8 workers: xcube traffic matches serial.
  InferenceServer server(&m, ServeOptions{.workers = 8, .max_batch = 4});
  std::vector<InferFuture> futures;
  for (int i = 0; i < 32; ++i) {
    InferRequest r;
    r.engine = "xcube";
    r.image = make_random_image(kImagePixels, 6900 + i);
    futures.push_back(server.submit(r));
  }
  server.drain();
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get().logits,
              oracle.run(make_random_image(kImagePixels, 6900 + i)))
        << i;
  }
}

}  // namespace
}  // namespace ataman
