// DSE engine: Pareto analysis, config-space generation, evaluator
// semantics, design selection, determinism.
#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/common/parallel.hpp"
#include "src/dse/config_space.hpp"
#include "src/dse/dse_runner.hpp"
#include "src/dse/evaluator.hpp"
#include "src/dse/pareto.hpp"
#include "src/nn/engine.hpp"
#include "src/sig/act_stats.hpp"
#include "tests/test_util.hpp"

namespace ataman {
namespace {

using testing::make_tiny_qmodel;

TEST(Pareto, Dominates) {
  EXPECT_TRUE(dominates({2, 2, 0}, {1, 1, 1}));
  EXPECT_TRUE(dominates({2, 1, 0}, {1, 1, 1}));
  EXPECT_FALSE(dominates({1, 1, 0}, {1, 1, 1}));  // equal: no strict gain
  EXPECT_FALSE(dominates({2, 0, 0}, {1, 1, 1}));  // trade-off
}

TEST(Pareto, FrontContainsOnlyNonDominated) {
  const std::vector<ParetoPoint> pts = {
      {0.0, 0.9, 0}, {0.1, 0.85, 1}, {0.2, 0.87, 2},
      {0.3, 0.6, 3}, {0.25, 0.87, 4}, {0.05, 0.5, 5},
  };
  const std::vector<int> front = pareto_front(pts);
  // 1 is dominated by 2/4 (more reduction, more accuracy); 5 dominated.
  for (const int idx : front) {
    for (const auto& other : pts) {
      EXPECT_FALSE(dominates(other, pts[static_cast<size_t>(idx)]))
          << "front point " << idx << " is dominated";
    }
  }
  // Best-accuracy and best-reduction points must be present.
  EXPECT_NE(std::find(front.begin(), front.end(), 0), front.end());
  EXPECT_NE(std::find(front.begin(), front.end(), 3), front.end());
  // Ascending in x.
  for (size_t i = 1; i < front.size(); ++i)
    EXPECT_LT(pts[static_cast<size_t>(front[i - 1])].x,
              pts[static_cast<size_t>(front[i])].x);
}

TEST(Pareto, SinglePointAndEmpty) {
  EXPECT_TRUE(pareto_front({}).empty());
  const std::vector<int> one = pareto_front({{1.0, 1.0, 0}});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 0);
}

TEST(ConfigSpace, UniformSubsetModeCount) {
  DseOptions o;
  o.mode = DseMode::kUniformTauBySubset;
  o.tau_min = 0.0;
  o.tau_max = 0.1;
  o.tau_step = 0.05;  // grid {0, 0.05, 0.1}
  const auto configs = generate_configs(3, o);
  // exact + (2^3 - 1) subsets x 3 taus = 1 + 21.
  EXPECT_EQ(configs.size(), 22u);
  EXPECT_FALSE(configs[0].approximates_anything());
}

TEST(ConfigSpace, PerLayerGridModeCount) {
  DseOptions o;
  o.mode = DseMode::kPerLayerGrid;
  o.per_layer_levels = 3;  // + exact level = 4 per layer
  const auto configs = generate_configs(2, o);
  EXPECT_EQ(configs.size(), 16u);  // 4^2
  EXPECT_FALSE(configs[0].approximates_anything());
}

TEST(ConfigSpace, PaperScaleLeNetGridExceeds10k) {
  // Paper: tau in [0, 0.1] step 0.001 (LeNet) across layer subsets of a
  // 3-conv model -> 1 + 7 * 101 = 708 uniform configs; the per-layer grid
  // with 10 levels gives 11^3 = 1331; both modes together with the
  // documented paper-scale options pass 10k only via finer per-layer
  // grids — verify the generator scales and caps correctly.
  DseOptions o;
  o.mode = DseMode::kPerLayerGrid;
  o.per_layer_levels = 21;
  const auto configs = generate_configs(3, o);
  EXPECT_EQ(configs.size(), 22u * 22 * 22);  // > 10,000 designs
  EXPECT_GT(configs.size(), 10000u);
}

TEST(ConfigSpace, MaxConfigsSubsamplesDeterministically) {
  DseOptions o;
  o.mode = DseMode::kPerLayerGrid;
  o.per_layer_levels = 6;
  o.max_configs = 50;
  const auto a = generate_configs(3, o);
  const auto b = generate_configs(3, o);
  ASSERT_EQ(a.size(), 50u);
  EXPECT_FALSE(a[0].approximates_anything());  // exact kept at slot 0
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].tau, b[i].tau);
}

TEST(ConfigSpace, RejectsBadGrid) {
  DseOptions o;
  o.tau_step = 0.0;
  EXPECT_THROW(generate_configs(2, o), Error);
  EXPECT_THROW(generate_configs(-1, DseOptions{}), Error);
}

TEST(ConfigSpace, ZeroApproxLayersDegeneratesToExact) {
  // Models with no approximable layers (e.g. dense-only autoencoders)
  // still sweep: the space is the single exact config.
  const std::vector<ApproxConfig> configs =
      generate_configs(0, DseOptions{});
  ASSERT_EQ(configs.size(), 1u);
  EXPECT_FALSE(configs[0].approximates_anything());
  EXPECT_TRUE(configs[0].tau.empty());
}

// --- evaluator + runner on a tiny random model --------------------------

class DseFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    model_ = new QModel(make_tiny_qmodel(60));
    eval_ = new Dataset(ImageShape{12, 12, 3}, 10);
    Rng rng(61);
    for (int i = 0; i < 60; ++i) {
      std::vector<uint8_t> img(12 * 12 * 3);
      for (auto& p : img) p = static_cast<uint8_t>(rng.next_int(0, 255));
      eval_->add(img, rng.next_int(0, 9));
    }
    const auto stats = capture_activation_stats(*model_, *eval_, 32);
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

QModel* DseFixture::model_ = nullptr;
Dataset* DseFixture::eval_ = nullptr;
std::vector<LayerSignificance>* DseFixture::sig_ = nullptr;

TEST_F(DseFixture, ExactConfigHasZeroReduction) {
  const ConfigEvaluator ev(model_, sig_, eval_, -1);
  const DseResult r = ev.evaluate(ApproxConfig::exact(2));
  EXPECT_EQ(r.skipped_conv_macs, 0);
  EXPECT_DOUBLE_EQ(r.conv_mac_reduction, 0.0);
  EXPECT_EQ(r.executed_macs, model_->mac_count());
  // Exact accuracy equals plain reference accuracy.
  EXPECT_DOUBLE_EQ(r.accuracy,
                   evaluate_quantized_accuracy(*model_, *eval_));
}

TEST_F(DseFixture, MacReductionMonotoneInUniformTau) {
  const ConfigEvaluator ev(model_, sig_, eval_, 20);
  double prev = -1.0;
  for (const double tau : {0.0, 0.005, 0.02, 0.08}) {
    const DseResult r = ev.evaluate(ApproxConfig::uniform(2, tau));
    EXPECT_GE(r.conv_mac_reduction, prev);
    prev = r.conv_mac_reduction;
  }
}

TEST_F(DseFixture, CyclesDropWithSkipping) {
  const ConfigEvaluator ev(model_, sig_, eval_, 20);
  const DseResult exact = ev.evaluate(ApproxConfig::exact(2));
  const DseResult heavy = ev.evaluate(ApproxConfig::uniform(2, 0.08));
  if (heavy.skipped_conv_macs > 0) {
    EXPECT_LT(heavy.cycles, exact.cycles);
    EXPECT_GT(heavy.latency_reduction, exact.latency_reduction);
    EXPECT_LT(heavy.flash_bytes, exact.flash_bytes);
  }
}

TEST_F(DseFixture, RunnerProducesValidFrontAndBaseline) {
  const ConfigEvaluator ev(model_, sig_, eval_, 30);
  DseOptions o;
  o.tau_step = 0.02;
  const DseOutcome outcome = run_dse(ev, 2, o);
  ASSERT_FALSE(outcome.results.empty());
  EXPECT_FALSE(outcome.results[0].config.approximates_anything());
  EXPECT_EQ(outcome.exact_accuracy, outcome.results[0].accuracy);
  EXPECT_GT(outcome.baseline_cycles, 0);
  ASSERT_FALSE(outcome.pareto.empty());
  // No front member is dominated by any result.
  for (const int fi : outcome.pareto) {
    const DseResult& f = outcome.results[static_cast<size_t>(fi)];
    for (const DseResult& r : outcome.results) {
      const bool dom = r.conv_mac_reduction >= f.conv_mac_reduction &&
                       r.accuracy >= f.accuracy &&
                       (r.conv_mac_reduction > f.conv_mac_reduction ||
                        r.accuracy > f.accuracy);
      EXPECT_FALSE(dom);
    }
  }
}

TEST_F(DseFixture, SelectRespectsAccuracyFloor) {
  const ConfigEvaluator ev(model_, sig_, eval_, 30);
  DseOptions o;
  o.tau_step = 0.02;
  const DseOutcome outcome = run_dse(ev, 2, o);

  const int strict = select_design(outcome, 0.0);
  ASSERT_GE(strict, 0);
  EXPECT_GE(outcome.results[static_cast<size_t>(strict)].accuracy,
            outcome.exact_accuracy - 1e-12);

  const int loose = select_design(outcome, 0.10);
  ASSERT_GE(loose, 0);
  EXPECT_LE(outcome.results[static_cast<size_t>(loose)].cycles,
            outcome.results[static_cast<size_t>(strict)].cycles);
}

TEST_F(DseFixture, SelectHonorsFlashCapacity) {
  const ConfigEvaluator ev(model_, sig_, eval_, 30);
  DseOptions o;
  o.tau_step = 0.05;
  const DseOutcome outcome = run_dse(ev, 2, o);
  // Impossibly small capacity -> nothing qualifies.
  EXPECT_EQ(select_design(outcome, 0.5, 1), -1);
}

TEST_F(DseFixture, DeterministicAcrossThreadCounts) {
  const ConfigEvaluator ev(model_, sig_, eval_, 25);
  DseOptions o;
  o.tau_step = 0.05;
  const auto configs = generate_configs(2, o);
  set_num_threads(1);
  const DseOutcome a = run_dse(ev, configs);
  set_num_threads(8);
  const DseOutcome b = run_dse(ev, configs);
  set_num_threads(0);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.results[i].accuracy, b.results[i].accuracy);
    EXPECT_EQ(a.results[i].cycles, b.results[i].cycles);
  }
  EXPECT_EQ(a.pareto, b.pareto);
}

TEST_F(DseFixture, RunnerRejectsNonExactFirstConfig) {
  const ConfigEvaluator ev(model_, sig_, eval_, 10);
  EXPECT_THROW(run_dse(ev, {ApproxConfig::uniform(2, 0.05)}), Error);
}

}  // namespace
}  // namespace ataman
