// DAG execution (residual QAdd skip edges) end to end: the liveness-based
// activation-buffer plan (peak-RAM pinned against both the chain
// ping-pong and the naive sum-of-tensors bound), QAdd requantize-add
// kernel semantics, linear/dominating boundary predicates and the
// run_from contract on DAGs, prefix-cached DSE parity when configs
// diverge inside a partially-shared stage, serve determinism on residual
// models (this suite carries the `serve-smoke` + `dse-smoke` labels, so
// the TSan leg race-checks DAG-buffered workers), generated-C parity, and
// the full train -> quantize -> DSE -> select -> serve -> codegen
// pipeline on the mobilenetv2 (inverted-residual) zoo architecture.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>

#include "src/codegen/c_emitter.hpp"
#include "src/common/fixed_point.hpp"
#include "src/common/parallel.hpp"
#include "src/core/ataman.hpp"
#include "src/core/engine_iface.hpp"
#include "src/dse/config_space.hpp"
#include "src/dse/dse_runner.hpp"
#include "src/dse/evaluator.hpp"
#include "src/dse/prefix_cache.hpp"
#include "src/mcu/memory_model.hpp"
#include "src/nn/engine.hpp"
#include "src/nn/qkernels_ref.hpp"
#include "src/nn/skip_mask.hpp"
#include "src/quant/qmodel_io.hpp"
#include "src/serve/server.hpp"
#include "src/sig/act_stats.hpp"
#include "src/unpack/layer_selection.hpp"
#include "src/unpack/unpacked_engine.hpp"
#include "tests/test_util.hpp"

namespace ataman {
namespace {

using serve::InferenceServer;
using serve::InferFuture;
using serve::InferRequest;
using serve::ServeOptions;
using testing::make_qadd;
using testing::make_random_image;
using testing::make_random_input;
using testing::make_residual_qmodel;
using testing::make_tiny_qmodel;

SkipMask random_mask(const QModel& m, double density, uint64_t seed) {
  SkipMask mask = SkipMask::none(m);
  Rng rng(seed);
  for (auto& layer_mask : mask.masks)
    for (auto& v : layer_mask) v = rng.next_bool(density) ? 1 : 0;
  return mask;
}

// ---------------------------------------------------------------------------
// Liveness-based activation plan
// ---------------------------------------------------------------------------

// On a pure chain exactly {input, output} are live at every step, so the
// planner must reproduce the classic two-slot ping-pong bound.
TEST(ActivationPlan, ChainPeakEqualsPingPongPair) {
  const QModel m = make_tiny_qmodel(40);
  ASSERT_TRUE(m.is_chain());
  const ActivationPlan plan = plan_activations(m);

  int64_t ping_pong = 0;
  for (int l = 0; l < static_cast<int>(m.layers.size()); ++l)
    ping_pong = std::max(ping_pong, m.tensor_elems(l) + m.tensor_elems(l + 1));
  EXPECT_EQ(plan.peak_elems, ping_pong);
  EXPECT_EQ(plan.slot_count(), 2);
  // Slot capacities together cover the peak.
  EXPECT_GE(std::accumulate(plan.slot_elems.begin(), plan.slot_elems.end(),
                            int64_t{0}),
            plan.peak_elems);
}

// The pinned DAG regression from the memory-model contract: on a
// residual model the liveness peak sits strictly between the chain
// pair bound (a skip tensor is held across the block body) and the
// naive no-reuse sum of every tensor.
TEST(ActivationPlan, ResidualPeakBeatsSumOfTensors) {
  const QModel m = make_residual_qmodel(41);
  ASSERT_FALSE(m.is_chain());
  const ActivationPlan plan = plan_activations(m);

  // 8x8x4 = 256-element tensors; at each add three of them are live
  // (both operands + the output), so the true peak is 3 * 256 = 768 —
  // above the chain pair bound (512), far below the 6 * 256 + 10 sum.
  EXPECT_EQ(plan.peak_elems, 768);
  int64_t pair_bound = 0;
  for (int l = 0; l < static_cast<int>(m.layers.size()); ++l)
    pair_bound = std::max(pair_bound, m.tensor_elems(l) + m.tensor_elems(l + 1));
  EXPECT_GT(plan.peak_elems, pair_bound);
  EXPECT_LT(plan.peak_elems, plan.total_tensor_elems());

  // And the model-level RAM row uses the liveness peak, not the pair.
  EXPECT_GE(model_ram_bytes(m, /*packed_engine=*/false,
                            kMemoryCosts.runtime_reserve),
            plan.peak_elems + kMemoryCosts.runtime_reserve);
}

// A step's output slot must never alias a live input slot — the property
// that makes slot-backed engine execution correct on DAGs.
TEST(ActivationPlan, SlotsNeverAliasOutputWithLiveInput) {
  for (const uint64_t seed : {42u, 43u, 44u}) {
    const QModel m = make_residual_qmodel(seed);
    const ActivationPlan plan = plan_activations(m);
    ASSERT_EQ(plan.tensors.size(), m.layers.size() + 1);
    for (int l = 0; l < static_cast<int>(m.layers.size()); ++l) {
      const int out_slot = plan.tensors[static_cast<size_t>(l) + 1].slot;
      for (const int t : m.inputs_of(l)) {
        EXPECT_NE(out_slot, plan.tensors[static_cast<size_t>(t)].slot)
            << "layer " << l << " output aliases input tensor " << t;
      }
    }
    // Every tensor fits its slot.
    for (const ActivationPlan::Tensor& t : plan.tensors) {
      ASSERT_GE(t.slot, 0);
      ASSERT_LT(t.slot, plan.slot_count());
      EXPECT_LE(t.elems, plan.slot_elems[static_cast<size_t>(t.slot)]);
    }
  }
}

// ---------------------------------------------------------------------------
// QAdd kernel semantics
// ---------------------------------------------------------------------------

// Identical scales make both requant multipliers exactly 1.0, so the op
// reduces to integer (qa - za) + (qb - zb) + zo with saturation — a
// hand-checkable case of the requantize-to-common-scale contract.
TEST(QAddKernel, IdentityScaleAddsZeroPointsAndSaturates) {
  const QAdd add = make_qadd(1, 1, 4, /*a=*/{0.1f, 5}, /*b=*/{0.1f, -3},
                             /*out=*/{0.1f, 7});
  const std::vector<int8_t> a = {50, 100, -100, 5};
  const std::vector<int8_t> b = {60, 100, -100, -3};
  std::vector<int8_t> out(4);
  qadd_ref(add, a, b, out);
  // (50-5)+(60+3)+7 = 115; 95+103+7 -> saturate 127;
  // -105-97+7 = -195 -> saturate -128; (5-5)+(-3+3)+7 = 7.
  EXPECT_EQ(out, (std::vector<int8_t>{115, 127, -128, 7}));
}

TEST(QAddKernel, FoldedReluClampsAtOutputZeroPoint) {
  const QAdd add = make_qadd(1, 1, 2, {0.1f, 0}, {0.1f, 0}, {0.1f, 10},
                             /*folded_relu=*/true);
  ASSERT_EQ(add.act_min, 10);
  const std::vector<int8_t> a = {-50, 30};
  const std::vector<int8_t> b = {-50, 20};
  std::vector<int8_t> out(2);
  qadd_ref(add, a, b, out);
  // -100 + 10 = -90 -> clamped to act_min (the folded ReLU's zero).
  EXPECT_EQ(out[0], 10);
  EXPECT_EQ(out[1], 60);
}

// Arbitrary scale ratios: the kernel must apply exactly
// mbqm(qa - za, requant_a) + mbqm(qb - zb, requant_b) + zo per element,
// with the shared fixed-point helper doing the rounding.
TEST(QAddKernel, MatchesFixedPointRequantizePerElement) {
  const QAdd add = make_qadd(3, 3, 2, {0.043f, 4}, {0.31f, -17},
                             {0.11f, 9});
  const auto a = make_random_input(3 * 3 * 2, 78);
  const auto b = make_random_input(3 * 3 * 2, 79);
  std::vector<int8_t> out(a.size());
  qadd_ref(add, a, b, out);
  for (size_t i = 0; i < a.size(); ++i) {
    const int32_t ra = multiply_by_quantized_multiplier(
        static_cast<int32_t>(a[i]) - add.in_a.zero_point, add.requant_a);
    const int32_t rb = multiply_by_quantized_multiplier(
        static_cast<int32_t>(b[i]) - add.in_b.zero_point, add.requant_b);
    const int32_t expected = std::clamp(ra + rb + add.out.zero_point,
                                        add.act_min, add.act_max);
    EXPECT_EQ(static_cast<int32_t>(out[i]), expected) << "element " << i;
  }
}

// ---------------------------------------------------------------------------
// Linear / dominating boundaries and the run_from contract
// ---------------------------------------------------------------------------

TEST(DagBoundaries, ResidualModelBoundaryPredicates) {
  const QModel m = make_residual_qmodel(50);
  // layer_inputs = {{0},{1},{2,1},{3},{4,3},{5}}: the adds at layers 2
  // and 4 cross boundaries 2 and 4; everything else is linear.
  for (const int linear : {0, 1, 3, 5, 6})
    EXPECT_TRUE(m.linear_boundary(linear)) << "boundary " << linear;
  for (const int crossed : {2, 4})
    EXPECT_FALSE(m.linear_boundary(crossed)) << "boundary " << crossed;

  EXPECT_EQ(m.dominating_boundary(0), 0);
  EXPECT_EQ(m.dominating_boundary(1), 1);
  EXPECT_EQ(m.dominating_boundary(2), 1);  // rounds down past the edge
  EXPECT_EQ(m.dominating_boundary(3), 3);
  EXPECT_EQ(m.dominating_boundary(4), 3);
  EXPECT_EQ(m.dominating_boundary(5), 5);

  // Chains: every boundary linear, dominating == identity.
  const QModel chain = make_tiny_qmodel(51);
  for (int l = 0; l <= static_cast<int>(chain.layers.size()); ++l) {
    EXPECT_TRUE(chain.linear_boundary(l));
    EXPECT_EQ(chain.dominating_boundary(l), l);
  }
}

TEST(DagBoundaries, RunFromResumesAtLinearBoundariesAndRejectsCrossed) {
  const QModel m = make_residual_qmodel(52);
  const RefEngine ref(&m);
  const auto image = make_random_image(8 * 8 * 4, 53);
  const std::vector<int8_t> full = ref.run(image);

  // Rebuild tensor 3 (the first add's output) with the reference
  // kernels, then resume at linear boundary 3.
  const std::vector<int8_t> t0 = ref.quantize_input(image);
  std::vector<int8_t> t1(256), t2(256), t3(256);
  conv2d_ref(std::get<QConv2D>(m.layers[0]), t0, t1);
  conv2d_ref(std::get<QConv2D>(m.layers[1]), t1, t2);
  qadd_ref(std::get<QAdd>(m.layers[2]), t2, t1, t3);
  EXPECT_EQ(ref.run_from(3, t3), full);
  // Boundary 0 resumes from the quantized input.
  EXPECT_EQ(ref.run_from(0, t0), full);
  // Past the last layer: identity.
  EXPECT_EQ(ref.run_from(static_cast<int>(m.layers.size()), full), full);

  // Crossed boundaries are rejected: a single tensor cannot carry the
  // frontier there.
  const std::vector<int8_t> junk(256, 0);
  EXPECT_THROW(ref.run_from(2, junk), Error);
  EXPECT_THROW(ref.run_from(4, junk), Error);
}

// ---------------------------------------------------------------------------
// Four-engine parity on the residual model
// ---------------------------------------------------------------------------

TEST(DagEngines, FourEngineBitwiseParityExactAndMasked) {
  const QModel m = make_residual_qmodel(60);
  const RefEngine oracle(&m);
  const SkipMask mask = random_mask(m, 0.35, 61);

  EngineConfig exact_cfg;
  exact_cfg.model = &m;
  EngineConfig masked_cfg;
  masked_cfg.model = &m;
  masked_cfg.mask = &mask;
  for (const char* name : {"ref", "cmsis", "unpacked", "xcube"}) {
    const auto engine = EngineRegistry::instance().create(name, exact_cfg);
    for (int i = 0; i < 6; ++i) {
      const auto img = make_random_image(8 * 8 * 4, 62 + i);
      EXPECT_EQ(engine->run(img), oracle.run(img)) << name << " image " << i;
    }
  }
  // Masked: skipping products on the DAG stays bitwise identical between
  // the masked reference and the skip-compiled unpacked engine.
  const UnpackedEngine up(&m, &mask);
  for (int i = 0; i < 6; ++i) {
    const auto img = make_random_image(8 * 8 * 4, 70 + i);
    EXPECT_EQ(oracle.run(img, &mask), up.run(img)) << "masked image " << i;
  }
}

TEST(DagEngines, BatchedExecutionMatchesPerImage) {
  const QModel m = make_residual_qmodel(63);
  const SkipMask mask = random_mask(m, 0.3, 64);
  EngineConfig cfg;
  cfg.model = &m;
  cfg.mask = &mask;
  std::vector<std::vector<uint8_t>> images;
  for (int i = 0; i < 7; ++i)
    images.push_back(make_random_image(8 * 8 * 4, 65 + i));
  std::vector<std::span<const uint8_t>> spans(images.begin(), images.end());

  for (const char* name : {"ref", "cmsis", "unpacked", "xcube"}) {
    const auto engine = EngineRegistry::instance().create(name, cfg);
    std::vector<std::vector<int8_t>> batched;
    engine->run_batch(spans, batched);
    ASSERT_EQ(batched.size(), images.size());
    for (size_t i = 0; i < images.size(); ++i)
      EXPECT_EQ(batched[i], engine->run(images[i]))
          << name << " image " << i;
  }
}

// Hybrid packed/unpacked layer selection runs on the descriptor seam, so
// it must produce one choice per approximable layer on DAG models too.
TEST(DagEngines, HybridSelectionCoversResidualModels) {
  const QModel m = make_residual_qmodel(66);
  const SkipMask mask = random_mask(m, 0.5, 67);
  const HybridPlan plan = select_layers_to_unpack(m, mask, /*budget=*/0);
  EXPECT_EQ(static_cast<int>(plan.choices.size()), m.approx_layer_count());
  for (const LayerDeployChoice& c : plan.choices) {
    EXPECT_GT(c.packed_cycles, 0);
    EXPECT_GT(c.unpacked_cycles, 0);
  }
}

// ---------------------------------------------------------------------------
// Prefix-cached DSE on DAGs
// ---------------------------------------------------------------------------

// conv -> conv -> conv -> add(skip from conv1) -> fc: the skip edge
// spans TWO approximable ordinals (layers 1 and 2 share the stage that
// starts at boundary 1), so configs that differ only at ordinal 2 must
// re-run from the dominating boundary — the in-stage resume path that
// does not exist on chains.
QModel make_overlap_qmodel(uint64_t seed) {
  QModel m;
  m.name = "overlap-test";
  m.topology = "1-[r1]-1";
  m.in_h = 8;
  m.in_w = 8;
  m.in_c = 4;
  m.input = {1.0f / 255.0f, -128};

  ConvGeom g;
  g.in_h = 8; g.in_w = 8; g.in_c = 4;
  g.out_c = 4; g.kernel = 3; g.stride = 1; g.pad = 1;

  QConv2D c1 = testing::make_random_qconv(g, seed * 71 + 1, true);
  c1.in = m.input;
  refresh_requant(c1);
  c1.act_min = c1.out.zero_point;
  QConv2D c2 = testing::make_random_qconv(g, seed * 71 + 2, true);
  c2.in = c1.out;
  refresh_requant(c2);
  c2.act_min = c2.out.zero_point;
  QConv2D c3 = testing::make_random_qconv(g, seed * 71 + 3, true);
  c3.in = c2.out;
  refresh_requant(c3);
  c3.act_min = c3.out.zero_point;

  Rng rng(seed * 71 + 4);
  const QAdd a1 =
      make_qadd(8, 8, 4, c3.out, c1.out, testing::random_act_params(rng));
  QDense fc = testing::make_random_qdense(8 * 8 * 4, 10, seed * 71 + 5);
  fc.in = a1.out;
  fc.requant = quantize_multiplier(
      static_cast<double>(fc.in.scale) * fc.w_scale / fc.out.scale);

  m.layers.emplace_back(std::move(c1));
  m.layers.emplace_back(std::move(c2));
  m.layers.emplace_back(std::move(c3));
  m.layers.emplace_back(a1);
  m.layers.emplace_back(std::move(fc));
  m.layer_inputs = {{0}, {1}, {2}, {3, 1}, {4}};
  m.validate_dag();
  return m;
}

class DagDseFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    model_ = new QModel(make_overlap_qmodel(80));
    eval_ = new Dataset(ImageShape{8, 8, 4}, 10);
    Rng rng(81);
    for (int i = 0; i < 60; ++i) {
      std::vector<uint8_t> img(8 * 8 * 4);
      for (auto& p : img) p = static_cast<uint8_t>(rng.next_int(0, 255));
      eval_->add(img, rng.next_int(0, 9));
    }
    const auto stats = capture_activation_stats(*model_, *eval_, 24);
    sig_ = new std::vector<LayerSignificance>(
        compute_model_significance(*model_, stats));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete eval_;
    delete sig_;
    model_ = nullptr;
    eval_ = nullptr;
    sig_ = nullptr;
  }

  static QModel* model_;
  static Dataset* eval_;
  static std::vector<LayerSignificance>* sig_;
};

QModel* DagDseFixture::model_ = nullptr;
Dataset* DagDseFixture::eval_ = nullptr;
std::vector<LayerSignificance>* DagDseFixture::sig_ = nullptr;

TEST_F(DagDseFixture, ExactSweepBitwiseMatchesPerConfigEvaluate) {
  const ConfigEvaluator ev(model_, sig_, eval_, -1);
  DseOptions grid;
  grid.tau_step = 0.02;
  const auto configs = generate_configs(model_->approx_layer_count(), grid);

  DseOptions o;
  o.exact_sweep = true;
  const DseOutcome fast = run_dse(ev, configs, o);

  ASSERT_EQ(fast.results.size(), configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    const DseResult legacy = ev.evaluate(configs[i]);
    EXPECT_EQ(fast.results[i].accuracy, legacy.accuracy) << "config " << i;
    EXPECT_EQ(fast.results[i].executed_macs, legacy.executed_macs);
    EXPECT_EQ(fast.results[i].cycles, legacy.cycles);
  }
  // The dominating-boundary resume still reuses work (the stage at
  // boundary 0/1 prefixes), it just reuses less than a chain would —
  // docs/DSE.md documents the hit-rate drop.
  EXPECT_GT(fast.cache_hits, 0);
}

// One full exact pass over the residual fixture's sweep: the prefix
// cache's segment counters, recorded. Stages round resumes down to the
// dominating boundary, so fewer segments are reused than on a chain.
TEST_F(DagDseFixture, PrefixCacheStatsOfOneFullPassArePinned) {
  DseOptions grid;
  grid.tau_step = 0.02;
  const auto configs = generate_configs(model_->approx_layer_count(), grid);
  const PrefixCache cache(model_, sig_, eval_, configs, -1);
  // Every config classifies every eval image.
  const std::vector<int> begin(configs.size(), 0);
  const std::vector<int> end(configs.size(), cache.eval_images());
  std::vector<uint8_t> hits(configs.size() *
                            static_cast<size_t>(cache.eval_images()));
  const PrefixCacheStats stats = cache.evaluate_ranges(begin, end, hits);
  EXPECT_EQ(stats.segments_run, 7020);
  EXPECT_EQ(stats.segments_reused, 3300);
}

// Staggered per-config ranges: trie nodes where only some siblings cover
// an image, inside the residual fixture's shared stage too.
TEST_F(DagDseFixture, StaggeredRangesMatchAFullPass) {
  DseOptions grid;
  grid.tau_step = 0.02;
  const PrefixCache cache(
      model_, sig_, eval_,
      generate_configs(model_->approx_layer_count(), grid), -1);
  EXPECT_EQ(testing::first_staggered_range_mismatch(cache, 82, 6), "");
}

TEST_F(DagDseFixture, AdaptiveSweepDeterministicAcrossThreadCounts) {
  const ConfigEvaluator ev(model_, sig_, eval_, -1);
  DseOptions o;
  o.tau_step = 0.02;
  o.eval_block = 8;
  const auto configs = generate_configs(model_->approx_layer_count(), o);
  set_num_threads(1);
  const DseOutcome a = run_dse(ev, configs, o);
  set_num_threads(8);
  const DseOutcome b = run_dse(ev, configs, o);
  set_num_threads(0);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i)
    EXPECT_EQ(a.results[i].accuracy, b.results[i].accuracy) << i;
  EXPECT_EQ(a.pareto, b.pareto);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.images_evaluated, b.images_evaluated);
}

// ---------------------------------------------------------------------------
// Serve determinism on residual models (TSan-checked via serve-smoke)
// ---------------------------------------------------------------------------

TEST(DagServe, ResidualModelBitwiseEqualToSerialForWorkers1And3) {
  const QModel m = make_residual_qmodel(90);
  const SkipMask mask = random_mask(m, 0.3, 91);
  struct Key {
    std::string engine;
    const SkipMask* mask;
  };
  const std::vector<Key> keys = {{"ref", &mask},
                                 {"unpacked", &mask},
                                 {"cmsis", nullptr},
                                 {"xcube", nullptr}};

  std::vector<InferRequest> requests;
  for (int i = 0; i < 24; ++i) {
    const Key& key = keys[static_cast<size_t>(i) % keys.size()];
    InferRequest r;
    r.engine = key.engine;
    r.mask = key.mask;
    r.image = make_random_image(8 * 8 * 4, 92 + static_cast<uint64_t>(i));
    requests.push_back(std::move(r));
  }
  // Serial single-request oracle.
  std::vector<std::vector<int8_t>> expected;
  for (const InferRequest& r : requests) {
    EngineConfig cfg;
    cfg.model = &m;
    cfg.mask = r.mask;
    expected.push_back(EngineRegistry::instance().create(r.engine, cfg)->run(
        r.image));
  }

  for (const int workers : {1, 3}) {
    ServeOptions options;
    options.workers = workers;
    options.max_batch = 4;
    InferenceServer server(&m, options);
    const std::vector<InferFuture> futures =
        server.submit_all(std::vector<InferRequest>(requests));
    server.drain();
    for (size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(futures[i].get().logits, expected[i])
          << "workers=" << workers << " request " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Generated C on the residual model
// ---------------------------------------------------------------------------

TEST(DagCodegen, CompiledResidualModelMatchesEngineBitExact) {
  if (std::system("cc --version > /dev/null 2>&1") != 0)
    GTEST_SKIP() << "no host C compiler";
  const QModel m = make_residual_qmodel(95);
  const SkipMask mask = random_mask(m, 0.3, 96);

  const std::string code = emit_model_c(m, &mask);
  // Two add kernels, each taking two input pointers.
  EXPECT_NE(code.find("_add0"), std::string::npos);
  EXPECT_NE(code.find("_add1"), std::string::npos);

  const std::string dir = "/tmp/ataman_dag_codegen";
  std::filesystem::remove_all(dir);
  write_text_file(dir + "/model.c", code);
  const std::string driver = R"(
#include <stdint.h>
#include <stdio.h>
extern void ataman_run(const uint8_t* image, int8_t* logits);
extern const int ataman_num_classes;
int main(void) {
  uint8_t img[8*8*4];
  if (fread(img, 1, sizeof img, stdin) != sizeof img) return 1;
  int8_t logits[64];
  ataman_run(img, logits);
  for (int i = 0; i < ataman_num_classes; ++i) printf("%d\n", (int)logits[i]);
  return 0;
}
)";
  write_text_file(dir + "/main.c", driver);
  const std::string compile = "cc -std=c99 -O2 " + dir + "/model.c " + dir +
                              "/main.c -o " + dir + "/runner 2> " + dir +
                              "/cc.log";
  ASSERT_EQ(std::system(compile.c_str()), 0)
      << "generated residual-model C failed to compile";

  const UnpackedEngine engine(&m, &mask);
  for (int trial = 0; trial < 4; ++trial) {
    const auto img = make_random_image(8 * 8 * 4, 97 + trial);
    {
      std::ofstream out(dir + "/img.bin", std::ios::binary);
      out.write(reinterpret_cast<const char*>(img.data()),
                static_cast<std::streamsize>(img.size()));
    }
    const std::string run =
        dir + "/runner < " + dir + "/img.bin > " + dir + "/out.txt";
    ASSERT_EQ(std::system(run.c_str()), 0);
    std::ifstream in(dir + "/out.txt");
    std::vector<int8_t> got;
    int v = 0;
    while (in >> v) got.push_back(static_cast<int8_t>(v));
    EXPECT_EQ(got, engine.run(img)) << "trial " << trial;
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Serialization: DAG trailer round trip + chain backward compat
// ---------------------------------------------------------------------------

TEST(DagSerialization, ResidualModelRoundTripsLayerInputs) {
  const std::string dir = "/tmp/ataman_dag_roundtrip";
  std::filesystem::create_directories(dir);
  const QModel m = make_residual_qmodel(98);
  save_qmodel(m, dir + "/residual.qm");
  const QModel loaded = load_qmodel(dir + "/residual.qm");
  ASSERT_EQ(loaded.layers.size(), m.layers.size());
  EXPECT_EQ(loaded.layer_inputs, m.layer_inputs);
  EXPECT_EQ(loaded.topology, m.topology);
  EXPECT_FALSE(loaded.is_chain());
  const RefEngine a(&m), b(&loaded);
  for (int i = 0; i < 6; ++i) {
    const auto img = make_random_image(8 * 8 * 4, 99 + i);
    EXPECT_EQ(a.run(img), b.run(img)) << i;
  }
  // Chains keep the pre-DAG representation: empty layer_inputs.
  const QModel chain = make_tiny_qmodel(100);
  save_qmodel(chain, dir + "/chain.qm");
  EXPECT_TRUE(load_qmodel(dir + "/chain.qm").is_chain());
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// mobilenetv2: the inverted-residual zoo pipeline end to end
// ---------------------------------------------------------------------------

class Mobilenetv2Pipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ZooSpec spec = mobilenetv2_spec();
    spec.data.train_images = 600;
    spec.data.test_images = 250;
    spec.train.epochs = 2;
    spec.train.lr_decay_at = {1};
    TrainedModel trained = train_from_scratch(spec, /*verbose=*/false);
    data_ = new SynthCifar(make_synth_cifar(spec.data));
    qmodel_ = new QModel(quantize_model(trained.net, data_->train));

    PipelineOptions opts;
    opts.dse.eval_images = 120;
    opts.dse.tau_step = 0.05;
    opts.dse.max_configs = 64;  // subset mode over 11 approx layers
    pipe_ = new AtamanPipeline(qmodel_, &data_->train, &data_->test, opts);
    pipe_->analyze();
    outcome_ = new DseOutcome(pipe_->explore());
  }
  static void TearDownTestSuite() {
    delete outcome_;
    delete pipe_;
    delete qmodel_;
    delete data_;
    outcome_ = nullptr;
    pipe_ = nullptr;
    qmodel_ = nullptr;
    data_ = nullptr;
  }

  static SynthCifar* data_;
  static QModel* qmodel_;
  static AtamanPipeline* pipe_;
  static DseOutcome* outcome_;
};

SynthCifar* Mobilenetv2Pipeline::data_ = nullptr;
QModel* Mobilenetv2Pipeline::qmodel_ = nullptr;
AtamanPipeline* Mobilenetv2Pipeline::pipe_ = nullptr;
DseOutcome* Mobilenetv2Pipeline::outcome_ = nullptr;

TEST_F(Mobilenetv2Pipeline, QuantizedModelHasResidualStructure) {
  // stem conv + 3 inverted-residual bodies (3 approximable layers each)
  // + head conv, with QAdd joins on the two stride-1 blocks.
  EXPECT_EQ(qmodel_->approx_layer_count(), 11);
  EXPECT_EQ(qmodel_->layers.size(), 15u);
  int add_count = 0;
  for (const QLayer& layer : qmodel_->layers) {
    const OpDescriptor d = describe_layer(layer);
    if (d.kind == OpKind::kAdd) {
      ++add_count;
      EXPECT_FALSE(d.skippable);
      EXPECT_EQ(d.macs, 0);
    }
  }
  EXPECT_EQ(add_count, 2);
  EXPECT_FALSE(qmodel_->is_chain());
  EXPECT_NO_THROW(qmodel_->validate_dag());
  EXPECT_EQ(qmodel_->topology, "1-[r1]-1-[r1]-1-1");
  // The residual structure shows up in the RAM plan: skip tensors held
  // across block bodies need more than two slots.
  EXPECT_GT(plan_activations(*qmodel_).slot_count(), 2);
}

TEST_F(Mobilenetv2Pipeline, FourEngineBitwiseParityOnExactConfig) {
  const RefEngine oracle(qmodel_);
  EngineConfig cfg;
  cfg.model = qmodel_;
  for (const char* name : {"ref", "cmsis", "unpacked", "xcube"}) {
    const auto engine = EngineRegistry::instance().create(name, cfg);
    for (int i = 0; i < 8; ++i) {
      const auto img = data_->test.image(i);
      EXPECT_EQ(engine->run(img), oracle.run(img)) << name << " image " << i;
    }
  }
}

TEST_F(Mobilenetv2Pipeline, RefEqualsUnpackedOnEverySweptConfig) {
  for (size_t i = 0; i < outcome_->results.size(); ++i) {
    const ApproxConfig& cfg = outcome_->results[i].config;
    if (!cfg.approximates_anything()) continue;
    const SkipMask mask = pipe_->mask_for(cfg);
    const RefEngine ref(qmodel_);
    const UnpackedEngine up(qmodel_, &mask);
    for (int img = 0; img < 2; ++img) {
      ASSERT_EQ(ref.run(data_->test.image(img), &mask),
                up.run(data_->test.image(img)))
          << "config " << i << " image " << img;
    }
  }
}

TEST_F(Mobilenetv2Pipeline, FastDseEngagedThePrefixCache) {
  EXPECT_GT(outcome_->results.size(), 10u);
  EXPECT_GT(outcome_->cache_hits, 0);
  EXPECT_GT(outcome_->images_evaluated, 0);
  bool any_reduction = false;
  for (const DseResult& r : outcome_->results)
    any_reduction |= r.skipped_conv_macs > 0;
  EXPECT_TRUE(any_reduction);
}

TEST_F(Mobilenetv2Pipeline, SelectsDeploysAndEmitsResidualCode) {
  const int idx = pipe_->select(*outcome_, 0.10);
  ASSERT_GE(idx, 0);
  const ApproxConfig& cfg = outcome_->results[static_cast<size_t>(idx)].config;
  EXPECT_EQ(cfg.tau.size(), 11u);

  const std::string code = pipe_->generate_code(cfg);
  EXPECT_NE(code.find("_add0"), std::string::npos);
  EXPECT_NE(code.find("_add1"), std::string::npos);
  EXPECT_NE(code.find("_dw"), std::string::npos);

  const DseResult& r = outcome_->results[static_cast<size_t>(idx)];
  const DeployReport dep = pipe_->deploy(cfg, "mbv2-approx", 120);
  EXPECT_DOUBLE_EQ(dep.top1_accuracy, r.accuracy);
  EXPECT_EQ(dep.cycles, r.cycles);
  EXPECT_EQ(dep.mac_ops, r.executed_macs);
  // The block-notation topology satellite: reports carry it through.
  EXPECT_EQ(dep.topology, "1-[r1]-1-[r1]-1-1");
}

TEST_F(Mobilenetv2Pipeline, ServesTheResidualModelDeterministically) {
  const RefEngine oracle(qmodel_);
  for (const int workers : {1, 3}) {
    InferenceServer server(qmodel_,
                           ServeOptions{.workers = workers, .max_batch = 4});
    std::vector<InferFuture> futures;
    for (int i = 0; i < 16; ++i) {
      InferRequest r;
      r.engine = (i % 2 == 0) ? "ref" : "unpacked";
      r.image = std::vector<uint8_t>(data_->test.image(i).begin(),
                                     data_->test.image(i).end());
      futures.push_back(server.submit(r));
    }
    server.drain();
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(futures[static_cast<size_t>(i)].get().logits,
                oracle.run(data_->test.image(i)))
          << "workers=" << workers << " request " << i;
    }
  }
}

TEST_F(Mobilenetv2Pipeline, SerializationRoundTripsTheDag) {
  const std::string dir = "/tmp/ataman_mbv2_roundtrip";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/mobilenetv2.qm";
  save_qmodel(*qmodel_, path);
  const QModel loaded = load_qmodel(path);
  ASSERT_EQ(loaded.layers.size(), qmodel_->layers.size());
  EXPECT_EQ(loaded.layer_inputs, qmodel_->layer_inputs);
  EXPECT_FALSE(loaded.is_chain());
  const RefEngine a(qmodel_), b(&loaded);
  for (int i = 0; i < 6; ++i)
    EXPECT_EQ(a.run(data_->test.image(i)), b.run(data_->test.image(i)));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ataman
