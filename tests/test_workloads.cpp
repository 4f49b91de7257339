// Workload-level coverage for the PR-8 additions: the vww shape
// (depthwise backbone, binary head) and the ae_anomaly shape (dense-only
// autoencoder with the scored head). Uses the untrained test_util
// fixtures, so the whole suite runs in milliseconds while still driving
// the exact code paths the zoo workloads use: four-engine parity on
// logits *and* reconstruction scores, run_batch parity, serialization
// of the scored-head trailer, the DSE smoke paths (prefix cache for
// vww, the zero-approx fallback for the autoencoder), and serve
// determinism across worker counts.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/engine_iface.hpp"
#include "src/dse/config_space.hpp"
#include "src/dse/dse_runner.hpp"
#include "src/nn/engine.hpp"
#include "src/quant/qmodel_io.hpp"
#include "src/serve/server.hpp"
#include "src/sig/act_stats.hpp"
#include "src/sig/significance.hpp"
#include "tests/test_util.hpp"

namespace ataman {
namespace {

using testing::make_random_image;
using testing::make_tiny_scored_qmodel;
using testing::make_tiny_vww_qmodel;

constexpr uint64_t kSeed = 424242;
constexpr int kImages = 8;

std::vector<std::vector<uint8_t>> image_pool(const QModel& m, int count,
                                             uint64_t salt) {
  const int64_t pixels = static_cast<int64_t>(m.in_h) * m.in_w * m.in_c;
  std::vector<std::vector<uint8_t>> pool;
  for (int i = 0; i < count; ++i)
    pool.push_back(make_random_image(pixels, salt + static_cast<uint64_t>(i)));
  return pool;
}

Dataset make_eval_set(const QModel& m, int images, int classes,
                      uint64_t seed) {
  Dataset ds(ImageShape{m.in_h, m.in_w, m.in_c}, classes);
  Rng rng(seed);
  for (int i = 0; i < images; ++i) {
    std::vector<uint8_t> img(static_cast<size_t>(m.in_h) * m.in_w * m.in_c);
    for (auto& p : img) p = static_cast<uint8_t>(rng.next_int(0, 255));
    ds.add(img, rng.next_int(0, classes - 1));
  }
  return ds;
}

// --- four-engine parity --------------------------------------------------

TEST(Workloads, VwwFourEngineBitwiseParity) {
  const QModel m = make_tiny_vww_qmodel(kSeed);
  const RefEngine oracle(&m);
  EngineConfig cfg;
  cfg.model = &m;
  const auto pool = image_pool(m, kImages, kSeed + 7);
  for (const char* name : {"ref", "cmsis", "unpacked", "xcube"}) {
    const auto engine = EngineRegistry::instance().create(name, cfg);
    for (size_t i = 0; i < pool.size(); ++i) {
      EXPECT_EQ(engine->run(pool[i]), oracle.run(pool[i]))
          << name << " image " << i;
      const int cls = engine->classify(pool[i]);
      EXPECT_EQ(cls, oracle.classify(pool[i])) << name << " image " << i;
      EXPECT_GE(cls, 0);
      EXPECT_LE(cls, 1);  // binary head
    }
  }
}

TEST(Workloads, ScoredHeadFourEngineBitwiseParity) {
  const QModel m = make_tiny_scored_qmodel(kSeed);
  ASSERT_EQ(m.head, TaskHead::kScore);
  const RefEngine oracle(&m);
  EngineConfig cfg;
  cfg.model = &m;
  const auto pool = image_pool(m, kImages, kSeed + 17);
  for (const char* name : {"ref", "cmsis", "unpacked", "xcube"}) {
    const auto engine = EngineRegistry::instance().create(name, cfg);
    for (size_t i = 0; i < pool.size(); ++i) {
      // Reconstructions (the "logits") are int8 tensors: bitwise equal.
      EXPECT_EQ(engine->run(pool[i]), oracle.run(pool[i]))
          << name << " image " << i;
      // Scores are double MSEs over identical int8 tensors in fixed
      // index order: exactly equal, not approximately.
      const double s = engine->score(pool[i]);
      EXPECT_EQ(s, oracle.score(pool[i])) << name << " image " << i;
      // classify() routes through the threshold on scored heads.
      EXPECT_EQ(engine->classify(pool[i]), scored_class(m, s))
          << name << " image " << i;
    }
  }
}

TEST(Workloads, ScoreThrowsOnClassifierHeads) {
  const QModel m = make_tiny_vww_qmodel(kSeed);
  const RefEngine engine(&m);
  const auto img = make_random_image(
      static_cast<int64_t>(m.in_h) * m.in_w * m.in_c, kSeed);
  EXPECT_THROW((void)engine.score(img), Error);
}

TEST(Workloads, ScoredClassThresholdSemantics) {
  QModel m = make_tiny_scored_qmodel(kSeed, /*threshold=*/1.0f);
  EXPECT_EQ(scored_class(m, 0.5), 0);
  EXPECT_EQ(scored_class(m, 1.0), 0);  // strictly above, not >=
  EXPECT_EQ(scored_class(m, 1.0 + 1e-9), 1);
}

// --- run_batch parity ----------------------------------------------------

TEST(Workloads, RunBatchMatchesPerImageRunOnBothShapes) {
  for (const bool scored : {false, true}) {
    const QModel m = scored ? make_tiny_scored_qmodel(kSeed + 1)
                            : make_tiny_vww_qmodel(kSeed + 1);
    SCOPED_TRACE(m.name);
    EngineConfig cfg;
    cfg.model = &m;
    const auto pool = image_pool(m, 5, kSeed + 27);
    for (const char* name : {"ref", "cmsis", "unpacked", "xcube"}) {
      const auto engine = EngineRegistry::instance().create(name, cfg);
      for (const int batch : {1, 3, 7}) {
        std::vector<std::span<const uint8_t>> images;
        for (int i = 0; i < batch; ++i)
          images.emplace_back(pool[static_cast<size_t>(i) % pool.size()]);
        std::vector<std::vector<int8_t>> logits;
        engine->run_batch(images, logits);
        ASSERT_EQ(logits.size(), images.size()) << name;
        for (int i = 0; i < batch; ++i) {
          EXPECT_EQ(logits[static_cast<size_t>(i)], engine->run(images[i]))
              << name << " batch " << batch << " image " << i;
        }
      }
    }
  }
}

// --- serialization -------------------------------------------------------

TEST(Workloads, ScoredHeadSurvivesSerializationRoundTrip) {
  const QModel m = make_tiny_scored_qmodel(kSeed + 2, /*threshold=*/0.125f);
  const std::string path = "/tmp/ataman_workloads_scored.qm";
  save_qmodel(m, path);
  const QModel loaded = load_qmodel(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.head, TaskHead::kScore);
  EXPECT_EQ(loaded.score_threshold, 0.125f);
  const RefEngine a(&m), b(&loaded);
  for (const auto& img : image_pool(m, 4, kSeed + 37)) {
    EXPECT_EQ(a.run(img), b.run(img));
    EXPECT_EQ(a.score(img), b.score(img));
    EXPECT_EQ(a.classify(img), b.classify(img));
  }
}

TEST(Workloads, ClassifierHeadRoundTripStaysDefault) {
  const QModel m = make_tiny_vww_qmodel(kSeed + 3);
  const std::string path = "/tmp/ataman_workloads_vww.qm";
  save_qmodel(m, path);
  const QModel loaded = load_qmodel(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.head, TaskHead::kClassify);
  const RefEngine a(&m), b(&loaded);
  for (const auto& img : image_pool(m, 4, kSeed + 47))
    EXPECT_EQ(a.run(img), b.run(img));
}

// --- DSE smoke -----------------------------------------------------------

TEST(Workloads, DseSmokeVwwRunsThroughPrefixCache) {
  const QModel m = make_tiny_vww_qmodel(kSeed + 4);
  ASSERT_GT(m.approx_layer_count(), 0);
  const Dataset eval = make_eval_set(m, 40, 2, kSeed + 57);
  const auto stats = capture_activation_stats(m, eval, 16);
  const auto significance = compute_model_significance(m, stats);

  DseOptions o;
  o.tau_step = 0.02;
  o.eval_images = 32;
  const ConfigEvaluator ev(&m, &significance, &eval, o.eval_images);
  const DseOutcome outcome = run_dse(ev, m.approx_layer_count(), o);

  ASSERT_GT(outcome.results.size(), 1u);
  EXPECT_FALSE(outcome.pareto.empty());
  // The fast sweep must actually engage: segments served from the
  // prefix cache and real image evals both nonzero.
  EXPECT_GT(outcome.cache_hits, 0);
  EXPECT_GT(outcome.images_evaluated, 0);
  EXPECT_GE(outcome.exact_accuracy, 0.0);
  EXPECT_LE(outcome.exact_accuracy, 1.0);
}

TEST(Workloads, DseSmokeScoredModelFallsBackToSingleExactConfig) {
  const QModel m = make_tiny_scored_qmodel(kSeed + 5);
  ASSERT_EQ(m.approx_layer_count(), 0);  // dense-only: nothing to skip
  const Dataset eval = make_eval_set(m, 40, 2, kSeed + 67);
  // Zero approximable layers: stats are empty, significance is empty,
  // the config space is the single exact config, and the runner falls
  // back to per-config evaluation.
  const auto stats = capture_activation_stats(m, eval, 16);
  EXPECT_TRUE(stats.empty());
  const std::vector<LayerSignificance> significance =
      compute_model_significance(m, stats);

  DseOptions o;
  o.eval_images = 32;
  const ConfigEvaluator ev(&m, &significance, &eval, o.eval_images);
  const DseOutcome outcome = run_dse(ev, m.approx_layer_count(), o);

  ASSERT_EQ(outcome.results.size(), 1u);
  EXPECT_FALSE(outcome.results[0].config.approximates_anything());
  EXPECT_GT(outcome.images_evaluated, 0);
  // Accuracy of the scored model is thresholded-classification accuracy
  // over the eval labels — a probability, not a raw MSE.
  EXPECT_GE(outcome.exact_accuracy, 0.0);
  EXPECT_LE(outcome.exact_accuracy, 1.0);
}

// --- serve determinism ---------------------------------------------------

TEST(Workloads, ServeDeterminismAcrossWorkerCountsOnBothShapes) {
  for (const bool scored : {false, true}) {
    const QModel m = scored ? make_tiny_scored_qmodel(kSeed + 6)
                            : make_tiny_vww_qmodel(kSeed + 6);
    SCOPED_TRACE(m.name);
    const auto pool = image_pool(m, 6, kSeed + 77);
    const char* engines[] = {"unpacked", "cmsis", "ref", "xcube"};
    constexpr int kRequests = 24;

    // Serial ground truth per request.
    std::vector<std::vector<int8_t>> expected;
    std::vector<double> expected_score;
    for (int i = 0; i < kRequests; ++i) {
      EngineConfig cfg;
      cfg.model = &m;
      const auto engine = EngineRegistry::instance().create(
          engines[static_cast<size_t>(i) % std::size(engines)], cfg);
      const auto& img = pool[static_cast<size_t>(i) % pool.size()];
      expected.push_back(engine->run(img));
      expected_score.push_back(scored ? engine->score(img) : 0.0);
    }

    for (const int workers : {1, 3}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      serve::ServeOptions options;
      options.workers = workers;
      options.max_batch = 4;
      serve::InferenceServer server(&m, options);
      std::vector<serve::InferFuture> futures;
      for (int i = 0; i < kRequests; ++i) {
        serve::InferRequest r;
        r.engine = engines[static_cast<size_t>(i) % std::size(engines)];
        const auto& img = pool[static_cast<size_t>(i) % pool.size()];
        r.image.assign(img.begin(), img.end());
        futures.push_back(server.submit(std::move(r)));
      }
      server.drain();
      for (int i = 0; i < kRequests; ++i) {
        const serve::InferResult r = futures[static_cast<size_t>(i)].get();
        EXPECT_EQ(r.logits, expected[static_cast<size_t>(i)])
            << "request " << i;
        if (scored) {
          EXPECT_EQ(r.score, expected_score[static_cast<size_t>(i)])
              << "request " << i;
          EXPECT_EQ(r.top1,
                    scored_class(m, expected_score[static_cast<size_t>(i)]))
              << "request " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ataman
