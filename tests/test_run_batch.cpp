// The run_batch seam (engine_iface.hpp): contract tests for the batched
// execution path added across the engines.
//
//   * Seam contract: every backend's batch is bitwise equal to per-image
//     run(), an empty batch is a hard error on every backend, and
//     logits_out is resized to the batch regardless of prior contents.
//   * Serve-level determinism: workers execute coalesced batches through
//     one run_batch call; results must stay bitwise identical to serial
//     per-image execution (the PR 4 contract, now with batched kernels).
//   * Cost-model invariance: engine total_cycles() is per-image and must
//     not depend on batch size for exact engines.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "src/core/engine_iface.hpp"
#include "src/core/eval.hpp"
#include "src/nn/engine.hpp"
#include "src/nn/skip_mask.hpp"
#include "src/serve/server.hpp"
#include "tests/test_util.hpp"

namespace ataman {
namespace {

using serve::InferenceServer;
using serve::InferFuture;
using serve::InferRequest;
using serve::ServeOptions;
using serve::ServeStats;
using testing::make_random_image;
using testing::make_tiny_qmodel;

constexpr int kImagePixels = 12 * 12 * 3;

std::vector<std::span<const uint8_t>> as_spans(
    const std::vector<std::vector<uint8_t>>& images) {
  std::vector<std::span<const uint8_t>> spans;
  spans.reserve(images.size());
  for (const auto& img : images) spans.emplace_back(img);
  return spans;
}

TEST(RunBatchContract, EveryRegisteredEngineBatchesBitwiseLikeRun) {
  const QModel m = make_tiny_qmodel(920);
  SkipMask mask = SkipMask::none(m);
  Rng rng(921);
  for (auto& layer : mask.masks)
    for (auto& s : layer) s = rng.next_bool(0.1) ? 1 : 0;
  // Six images with a duplicate: one full lane-block plus a ragged tail.
  std::vector<std::vector<uint8_t>> images;
  for (int i = 0; i < 5; ++i)
    images.push_back(make_random_image(kImagePixels, 922 + i));
  images.push_back(images[1]);

  for (const std::string& name : EngineRegistry::instance().names()) {
    for (const SkipMask* bound : {static_cast<const SkipMask*>(nullptr),
                                  static_cast<const SkipMask*>(&mask)}) {
      EngineConfig cfg;
      cfg.model = &m;
      cfg.mask = bound;
      const auto engine = EngineRegistry::instance().create(name, cfg);
      std::vector<std::vector<int8_t>> logits;
      engine->run_batch(as_spans(images), logits);
      ASSERT_EQ(logits.size(), images.size()) << name;
      for (size_t i = 0; i < images.size(); ++i) {
        EXPECT_EQ(logits[i], engine->run(images[i]))
            << name << (bound != nullptr ? " masked" : " exact") << " image "
            << i;
      }
    }
  }
}

TEST(RunBatchContract, EmptyBatchIsAHardErrorOnEveryBackend) {
  const QModel m = make_tiny_qmodel(930);
  EngineConfig cfg;
  cfg.model = &m;
  for (const std::string& name : EngineRegistry::instance().names()) {
    const auto engine = EngineRegistry::instance().create(name, cfg);
    std::vector<std::vector<int8_t>> logits;
    EXPECT_THROW(
        engine->run_batch(std::vector<std::span<const uint8_t>>{}, logits),
        std::exception)
        << name;
  }
}

TEST(RunBatchContract, OutputBufferIsResizedAndOverwritten) {
  const QModel m = make_tiny_qmodel(940);
  EngineConfig cfg;
  cfg.model = &m;
  std::vector<std::vector<uint8_t>> images;
  for (int i = 0; i < 3; ++i)
    images.push_back(make_random_image(kImagePixels, 941 + i));
  const RefEngine oracle(&m);

  for (const std::string& name : EngineRegistry::instance().names()) {
    // Stale garbage from a previous (larger) batch must be discarded.
    std::vector<std::vector<int8_t>> logits(7,
                                            std::vector<int8_t>(99, int8_t{3}));
    EngineRegistry::instance().create(name, cfg)->run_batch(as_spans(images),
                                                            logits);
    ASSERT_EQ(logits.size(), images.size()) << name;
    for (size_t i = 0; i < images.size(); ++i)
      EXPECT_EQ(logits[i], oracle.run(images[i])) << name << " image " << i;
  }
}

TEST(RunBatchContract, EvaluateBatchMatchesClassifyFnPath) {
  const QModel m = make_tiny_qmodel(950);
  Dataset ds(ImageShape{m.in_h, m.in_w, m.in_c}, 10);
  Rng rng(951);
  for (int i = 0; i < 37; ++i) {  // odd count -> ragged final sub-batch
    std::vector<uint8_t> img(static_cast<size_t>(kImagePixels));
    for (auto& p : img) p = static_cast<uint8_t>(rng.next_int(0, 255));
    ds.add(img, rng.next_int(0, 9));
  }
  EngineConfig cfg;
  cfg.model = &m;
  for (const std::string& name : EngineRegistry::instance().names()) {
    const auto engine = EngineRegistry::instance().create(name, cfg);
    const BatchAccuracy batched = evaluate_batch(*engine, ds, -1);
    const BatchAccuracy serial = evaluate_batch(
        [&](std::span<const uint8_t> image) { return engine->classify(image); },
        ds, -1);
    EXPECT_EQ(batched.correct, serial.correct) << name;
    EXPECT_EQ(batched.images, serial.images) << name;
  }
}

// ---------------------------------------------------------------------------
// Serve-level determinism with batched execution
// ---------------------------------------------------------------------------

TEST(RunBatchServe, BatchedWorkersStayBitwiseEqualToSerial) {
  const QModel m = make_tiny_qmodel(960);
  SkipMask mask = SkipMask::none(m);
  Rng rng(961);
  for (auto& layer : mask.masks)
    for (auto& s : layer) s = rng.next_bool(0.05) ? 1 : 0;

  // Mixed traffic over batch-supporting engines and the xcube fallback.
  struct Key {
    const char* engine;
    const SkipMask* mask;
  };
  const Key keys[] = {{"cmsis", nullptr},
                      {"unpacked", &mask},
                      {"ref", &mask},
                      {"xcube", nullptr}};
  constexpr int kRequests = 64;
  std::vector<InferRequest> requests;
  for (int i = 0; i < kRequests; ++i) {
    const Key& key = keys[static_cast<size_t>(i) % std::size(keys)];
    InferRequest r;
    r.engine = key.engine;
    r.mask = key.mask;
    const auto img = make_random_image(kImagePixels, 962 + i);
    r.image.assign(img.begin(), img.end());
    requests.push_back(std::move(r));
  }

  std::vector<std::vector<int8_t>> expected;
  for (const InferRequest& r : requests) {
    EngineConfig cfg;
    cfg.model = &m;
    cfg.mask = r.mask;
    expected.push_back(
        EngineRegistry::instance().create(r.engine, cfg)->run(r.image));
  }

  for (const int workers : {1, 3}) {
    ServeOptions options;
    options.workers = workers;
    options.max_batch = 8;
    InferenceServer server(&m, options);
    std::vector<InferFuture> futures = server.submit_all(requests);
    server.drain();
    for (size_t i = 0; i < futures.size(); ++i) {
      const serve::InferResult r = futures[i].get();
      EXPECT_EQ(r.logits, expected[i]) << "workers=" << workers << " request "
                                       << i;
      EXPECT_GE(r.batch_size, 1);
      EXPECT_LE(r.batch_size, options.max_batch);
    }
    const ServeStats stats = server.stats();
    EXPECT_EQ(stats.completed, kRequests);
    EXPECT_GE(stats.batches, 1);
    server.stop();
  }
}

// ---------------------------------------------------------------------------
// Cost-model invariance
// ---------------------------------------------------------------------------

TEST(RunBatchCost, TotalCyclesPerImageIndependentOfBatchSize) {
  const QModel m = make_tiny_qmodel(970);
  EngineConfig cfg;
  cfg.model = &m;
  for (const char* name : {"cmsis", "unpacked", "xcube"}) {
    const auto engine = EngineRegistry::instance().create(name, cfg);
    const int64_t before = engine->total_cycles();
    std::vector<std::vector<int8_t>> logits;
    for (const int batch : {1, 3, 16}) {
      std::vector<std::vector<uint8_t>> images;
      for (int i = 0; i < batch; ++i)
        images.push_back(make_random_image(kImagePixels, 971 + i));
      engine->run_batch(as_spans(images), logits);
      // Modeled per-image deployment cost is a pure function of the layer
      // geometry: executing a batch must not change it.
      EXPECT_EQ(engine->total_cycles(), before)
          << name << " batch=" << batch;
    }
  }
}

}  // namespace
}  // namespace ataman
