// The InferenceEngine seam: registry round-trip, cross-engine parity
// (logits and classifications, including crafted tied-logit inputs), and
// the shared batched evaluator's limit clamping.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/cmsisnn/cmsis_engine.hpp"
#include "src/common/parallel.hpp"
#include "src/core/engine_iface.hpp"
#include "src/core/eval.hpp"
#include "src/nn/engine.hpp"
#include "src/unpack/unpacked_engine.hpp"
#include "tests/test_util.hpp"

namespace ataman {
namespace {

using testing::make_random_image;
using testing::make_tiny_qmodel;

const char* const kBuiltins[] = {"ref", "cmsis", "unpacked", "xcube"};

Dataset make_eval_set(int images, uint64_t seed) {
  Dataset ds(ImageShape{12, 12, 3}, 10);
  Rng rng(seed);
  for (int i = 0; i < images; ++i) {
    std::vector<uint8_t> img(12 * 12 * 3);
    for (auto& p : img) p = static_cast<uint8_t>(rng.next_int(0, 255));
    ds.add(img, rng.next_int(0, 9));
  }
  return ds;
}

// Single-dense model whose logits are fully determined by the biases:
// zero weights make the accumulator equal the bias, so tied biases yield
// bit-identical tied logits on any input — the argmax-parity worst case.
QModel make_bias_logit_model(const std::vector<int32_t>& biases) {
  QModel m;
  m.name = "tied-logits";
  m.topology = "fc";
  m.in_h = 2;
  m.in_w = 2;
  m.in_c = 1;
  m.input = {1.0f / 255.0f, -128};

  QDense fc;
  fc.in_dim = 4;
  fc.out_dim = static_cast<int>(biases.size());
  fc.in = m.input;
  fc.out = {1e-4f, 0};
  fc.w_scale = 0.01f;
  fc.weights.assign(static_cast<size_t>(fc.in_dim) * fc.out_dim, 0);
  fc.bias = biases;
  fc.requant = quantize_multiplier(
      static_cast<double>(fc.in.scale) * fc.w_scale / fc.out.scale);
  m.layers.emplace_back(std::move(fc));
  return m;
}

TEST(EngineRegistry, BuiltinsRoundTrip) {
  const QModel m = make_tiny_qmodel(400);
  EngineRegistry& reg = EngineRegistry::instance();
  EngineConfig cfg;
  cfg.model = &m;
  for (const char* name : kBuiltins) {
    EXPECT_TRUE(reg.contains(name)) << name;
    const auto engine = reg.create(name, cfg);
    ASSERT_NE(engine, nullptr) << name;
    EXPECT_EQ(&engine->model(), &m) << name;
    EXPECT_FALSE(engine->design_name().empty()) << name;
  }
  const std::vector<std::string> names = reg.names();
  for (const char* name : kBuiltins)
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end());
}

TEST(EngineRegistry, UnknownNameThrows) {
  const QModel m = make_tiny_qmodel(401);
  EngineConfig cfg;
  cfg.model = &m;
  EXPECT_THROW(EngineRegistry::instance().create("no-such-engine", cfg),
               Error);
  EXPECT_THROW(EngineRegistry::instance().create("ref", EngineConfig{}),
               Error);  // null model
}

TEST(EngineRegistry, DesignNameOverrideAndCustomRegistration) {
  const QModel m = make_tiny_qmodel(402);
  EngineRegistry& reg = EngineRegistry::instance();
  EngineConfig cfg;
  cfg.model = &m;
  cfg.design_name = "my-label";
  EXPECT_EQ(reg.create("cmsis", cfg)->design_name(), "my-label");

  // A new backend is a single registration.
  reg.register_engine("test-custom", [](const EngineConfig& c) {
    return std::make_unique<RefEngine>(c.model);
  });
  EXPECT_TRUE(reg.contains("test-custom"));
  const auto custom = reg.create("test-custom", cfg);
  EXPECT_EQ(custom->design_name(), "my-label");
  EXPECT_EQ(custom->classify(make_random_image(12 * 12 * 3, 7)),
            RefEngine(&m).classify(make_random_image(12 * 12 * 3, 7)));
}

TEST(EngineParity, IdenticalLogitsAndClassOnExactConfigs) {
  const QModel m = make_tiny_qmodel(410);
  EngineConfig cfg;
  cfg.model = &m;
  const RefEngine ref(&m);
  for (const char* name : kBuiltins) {
    const auto engine = EngineRegistry::instance().create(name, cfg);
    for (int i = 0; i < 25; ++i) {
      const auto img = make_random_image(12 * 12 * 3, 4100 + i);
      EXPECT_EQ(engine->run(img), ref.run(img)) << name << " image " << i;
      EXPECT_EQ(engine->classify(img), ref.classify(img))
          << name << " image " << i;
    }
  }
}

TEST(EngineParity, BatchAccuracyAgreesAcrossEngines) {
  const QModel m = make_tiny_qmodel(411);
  const Dataset eval = make_eval_set(60, 412);
  EngineConfig cfg;
  cfg.model = &m;
  const BatchAccuracy ref =
      evaluate_batch(*EngineRegistry::instance().create("ref", cfg), eval);
  EXPECT_EQ(ref.images, 60);
  for (const char* name : kBuiltins) {
    const BatchAccuracy acc =
        evaluate_batch(*EngineRegistry::instance().create(name, cfg), eval);
    EXPECT_EQ(acc.correct, ref.correct) << name;
    EXPECT_DOUBLE_EQ(acc.top1, ref.top1) << name;
  }
}

TEST(EngineParity, MaskedRefMatchesUnpackedThroughRegistry) {
  const QModel m = make_tiny_qmodel(413);
  SkipMask mask = SkipMask::none(m);
  Rng rng(414);
  for (auto& layer_mask : mask.masks)
    for (auto& s : layer_mask) s = rng.next_bool(0.3) ? 1 : 0;

  EngineConfig cfg;
  cfg.model = &m;
  cfg.mask = &mask;
  const auto masked_ref = EngineRegistry::instance().create("ref", cfg);
  const auto unpacked = EngineRegistry::instance().create("unpacked", cfg);
  for (int i = 0; i < 15; ++i) {
    const auto img = make_random_image(12 * 12 * 3, 4300 + i);
    EXPECT_EQ(masked_ref->run(img), unpacked->run(img)) << "image " << i;
  }
  // Both report *executed* MACs for the same approximate design.
  EXPECT_EQ(masked_ref->mac_ops(), unpacked->mac_ops());
  EXPECT_LT(masked_ref->mac_ops(), m.mac_count());
}

TEST(ArgmaxParity, LowestIndexWinsOnTies) {
  const std::vector<int8_t> all_equal(10, 42);
  EXPECT_EQ(argmax_lowest_index(all_equal), 0);
  EXPECT_EQ(argmax_lowest_index(std::vector<int8_t>{-5, 7, 7, -5}), 1);
  EXPECT_EQ(argmax_lowest_index(std::vector<int8_t>{3, -1, 3}), 0);
  EXPECT_EQ(argmax_lowest_index(std::vector<int8_t>{-128, -128}), 0);
  EXPECT_EQ(argmax_lowest_index(std::vector<int8_t>{1, 2, 127, 127}), 2);
  EXPECT_THROW(argmax_lowest_index(std::vector<int8_t>{}), Error);
}

TEST(ArgmaxParity, EnginesBreakTiedLogitsIdentically) {
  // Bias-only logits: {118, 118, -128, -128} ties at 0/1 -> class 0,
  // {-128, 118, 118, -128} ties at 1/2 -> class 1 (a last-max argmax
  // would answer 1 and 2 — the parity bug this test pins down).
  const struct {
    std::vector<int32_t> biases;
    int expected;
  } cases[] = {
      {{300, 300, -500, -500}, 0},
      {{-500, 300, 300, -500}, 1},
      {{-500, -500, 300, 300}, 2},
      {{0, 0, 0, 0}, 0},
  };
  for (const auto& c : cases) {
    const QModel m = make_bias_logit_model(c.biases);
    EngineConfig cfg;
    cfg.model = &m;
    for (const char* name : kBuiltins) {
      const auto engine = EngineRegistry::instance().create(name, cfg);
      const auto img = make_random_image(2 * 2 * 1, 77);
      const std::vector<int8_t> logits = engine->run(img);
      ASSERT_EQ(logits.size(), c.biases.size()) << name;
      EXPECT_EQ(logits[0] == logits[1] || logits[1] == logits[2] ||
                    logits[2] == logits[3],
                true)
          << name << ": crafted tie collapsed";
      EXPECT_EQ(engine->classify(img), c.expected) << name;
    }
  }
}

TEST(BatchEvaluator, LimitClampIsShared) {
  EXPECT_EQ(clamp_eval_limit(-1, 10), 10);
  EXPECT_EQ(clamp_eval_limit(5, 10), 5);
  EXPECT_EQ(clamp_eval_limit(10, 10), 10);
  EXPECT_EQ(clamp_eval_limit(999, 10), 10);   // over-ask: whole dataset
  EXPECT_THROW(clamp_eval_limit(0, 10), Error);
  EXPECT_THROW(clamp_eval_limit(-1, 0), Error);

  const QModel m = make_tiny_qmodel(420);
  const Dataset eval = make_eval_set(20, 421);
  EngineConfig cfg;
  cfg.model = &m;
  const auto engine = EngineRegistry::instance().create("ref", cfg);
  const BatchAccuracy all = evaluate_batch(*engine, eval, -1);
  const BatchAccuracy over = evaluate_batch(*engine, eval, 1000);
  EXPECT_EQ(all.images, 20);
  EXPECT_EQ(over.images, 20);
  EXPECT_EQ(over.correct, all.correct);
  EXPECT_EQ(evaluate_batch(*engine, eval, 7).images, 7);
  EXPECT_THROW(evaluate_batch(*engine, eval, 0), Error);
  // The legacy entry point shares the same clamp.
  EXPECT_THROW(evaluate_quantized_accuracy(m, eval, nullptr, 0), Error);
  EXPECT_DOUBLE_EQ(evaluate_quantized_accuracy(m, eval, nullptr, 1000),
                   all.top1);
}

TEST(BatchEvaluator, DeterministicAcrossThreadCounts) {
  const QModel m = make_tiny_qmodel(430);
  const Dataset eval = make_eval_set(33, 431);
  EngineConfig cfg;
  cfg.model = &m;
  const auto engine = EngineRegistry::instance().create("cmsis", cfg);
  set_num_threads(1);
  const BatchAccuracy serial = evaluate_batch(*engine, eval);
  set_num_threads(4);
  const BatchAccuracy parallel = evaluate_batch(*engine, eval);
  set_num_threads(0);  // restore default
  EXPECT_EQ(serial.correct, parallel.correct);
  EXPECT_DOUBLE_EQ(serial.top1, parallel.top1);
}

TEST(DeployReport, SharedAssemblyFillsEveryColumn) {
  const QModel m = make_tiny_qmodel(440);
  const Dataset eval = make_eval_set(15, 441);
  EngineConfig cfg;
  cfg.model = &m;
  const BoardSpec board;
  for (const char* name : {"cmsis", "unpacked", "xcube"}) {
    const auto engine = EngineRegistry::instance().create(name, cfg);
    const DeployReport r = engine->deploy(eval, board);
    EXPECT_EQ(r.design, engine->design_name()) << name;
    EXPECT_EQ(r.network, m.name) << name;
    EXPECT_GT(r.cycles, 0) << name;
    EXPECT_GT(r.latency_ms, 0.0) << name;
    EXPECT_GT(r.flash_bytes, 0) << name;
    EXPECT_GT(r.ram_bytes, 0) << name;
    EXPECT_GT(r.mac_ops, 0) << name;
  }
  // The reference oracle deploys too, with "not modeled" (zero) costs.
  const DeployReport ref =
      EngineRegistry::instance().create("ref", cfg)->deploy(eval, board);
  EXPECT_EQ(ref.cycles, 0);
  EXPECT_EQ(ref.flash_bytes, 0);
  EXPECT_GE(ref.top1_accuracy, 0.0);
}

}  // namespace
}  // namespace ataman
