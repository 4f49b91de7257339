// Fast DSE path: RefEngine::run_from layer-boundary resume, bitwise
// parity of the prefix-cached exact sweep with the per-config evaluator
// (chain and depthwise fixtures, and operands on the skip boundary), the
// prefix cache's segment counters and staggered per-config image ranges,
// the adaptive early-exit invariants (all-exact config and every Pareto
// member fully evaluated), determinism across thread counts, and the
// sweep's progress contract.
//
// This suite carries the `dse-smoke` ctest label: it is the tiny
// fast-vs-exact sweep CI runs in the OMP_NUM_THREADS={1,4} matrix. It
// also carries `kernel-parity`: the prefix cache runs unpacked and
// packed kernels, which the ASan+UBSan job then checks against the
// reference oracle.
#include <gtest/gtest.h>

#include <utility>

#include "src/common/error.hpp"
#include "src/common/parallel.hpp"
#include "src/dse/adaptive_eval.hpp"
#include "src/dse/config_space.hpp"
#include "src/dse/dse_runner.hpp"
#include "src/dse/evaluator.hpp"
#include "src/dse/prefix_cache.hpp"
#include "src/nn/engine.hpp"
#include "src/sig/act_stats.hpp"
#include "tests/test_util.hpp"

namespace ataman {
namespace {

using testing::make_tiny_qmodel;

class DseFastFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    model_ = new QModel(make_tiny_qmodel(91));
    eval_ = new Dataset(ImageShape{12, 12, 3}, 10);
    Rng rng(92);
    for (int i = 0; i < 120; ++i) {
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

  static std::vector<ApproxConfig> sweep_configs() {
    DseOptions o;
    o.tau_step = 0.02;  // grid {0, 0.02, ..., 0.1}: 1 + 3 subsets x 6 taus
    return generate_configs(2, o);
  }

  // `configs` plus the two corners sweep_configs() never reaches: every
  // operand skipped that is not kAlwaysRetain (bias-only channel
  // programs), and the same on ordinal 1 behind an exact ordinal 0.
  static std::vector<ApproxConfig> with_full_skips(
      std::vector<ApproxConfig> configs, int approx_count) {
    configs.push_back(ApproxConfig::uniform(approx_count, 1e30));
    ApproxConfig mixed = ApproxConfig::uniform(approx_count, 1e30);
    mixed.tau[0] = -1.0;
    configs.push_back(mixed);
    return configs;
  }

  static QModel* model_;
  static Dataset* eval_;
  static std::vector<LayerSignificance>* sig_;
};

QModel* DseFastFixture::model_ = nullptr;
Dataset* DseFastFixture::eval_ = nullptr;
std::vector<LayerSignificance>* DseFastFixture::sig_ = nullptr;

// The depthwise fixture of ExactSweepBitwiseMatchesPerConfigEvaluate:
// make_tiny_vww_qmodel (conv -> depthwise -> avgpool -> fc) with 60
// random binary-labelled images.
struct DepthwiseCase {
  QModel model = testing::make_tiny_vww_qmodel(101);
  Dataset eval{ImageShape{model.in_h, model.in_w, model.in_c}, 2};
  std::vector<LayerSignificance> sig;

  DepthwiseCase() {
    Rng rng(94);
    for (int i = 0; i < 60; ++i) {
      std::vector<uint8_t> img(static_cast<size_t>(model.in_h) * model.in_w *
                               model.in_c);
      for (auto& p : img) p = static_cast<uint8_t>(rng.next_int(0, 255));
      eval.add(img, rng.next_int(0, 1));
    }
    sig = compute_model_significance(model,
                                     capture_activation_stats(model, eval, 24));
  }
};

// --- RefEngine::run_from -------------------------------------------------

TEST_F(DseFastFixture, RunFromResumesAtEveryConvBoundary) {
  const RefEngine ref(model_);
  const auto image = eval_->image(0);
  const std::vector<int8_t> full = ref.run(image);

  // Capture each approximable layer's input with a tap, then resume
  // there.
  std::vector<std::vector<int8_t>> conv_inputs(
      static_cast<size_t>(model_->approx_layer_count()));
  ref.run(image, nullptr,
          [&](int ordinal, const QLayer&, std::span<const int8_t> in) {
            conv_inputs[static_cast<size_t>(ordinal)].assign(in.begin(),
                                                             in.end());
          });
  for (int k = 0; k < model_->approx_layer_count(); ++k) {
    const std::vector<int8_t> resumed =
        ref.run_from(model_->approx_layer_index(k),
                     conv_inputs[static_cast<size_t>(k)]);
    EXPECT_EQ(resumed, full) << "resume at conv ordinal " << k;
  }
  // Resuming past the last layer is the identity.
  EXPECT_EQ(ref.run_from(static_cast<int>(model_->layers.size()), full),
            full);
}

TEST_F(DseFastFixture, RunFromValidatesInput) {
  const RefEngine ref(model_);
  const std::vector<int8_t> wrong(7, 0);
  EXPECT_THROW(ref.run_from(0, wrong), Error);
  EXPECT_THROW(ref.run_from(-1, wrong), Error);
  EXPECT_THROW(
      ref.run_from(static_cast<int>(model_->layers.size()) + 1, wrong),
      Error);
}

// --- Wilson bounds ------------------------------------------------------

TEST(WilsonBound, BracketsTheSampleProportion) {
  for (const auto& [h, n] :
       {std::pair{0, 10}, {3, 10}, {10, 10}, {57, 200}}) {
    const double p = static_cast<double>(h) / n;
    EXPECT_LE(wilson_lower(h, n, 2.58), p + 1e-12);
    EXPECT_GE(wilson_upper(h, n, 2.58), p - 1e-12);
    EXPECT_GE(wilson_lower(h, n, 2.58), 0.0);
    EXPECT_LE(wilson_upper(h, n, 2.58), 1.0);
  }
  // No observations: vacuous interval.
  EXPECT_EQ(wilson_lower(0, 0, 2.58), 0.0);
  EXPECT_EQ(wilson_upper(0, 0, 2.58), 1.0);
  // More evidence tightens the interval.
  EXPECT_GT(wilson_upper(3, 10, 2.58) - wilson_lower(3, 10, 2.58),
            wilson_upper(30, 100, 2.58) - wilson_lower(30, 100, 2.58));
}

// --- prefix-cached exact sweep: bitwise parity --------------------------

// Runs the exact prefix-cached sweep over `configs` and checks every
// result bitwise against one ConfigEvaluator::evaluate per config (the
// pre-prefix-cache sweep).
void expect_exact_sweep_matches_legacy(
    const QModel& model, const std::vector<LayerSignificance>& sig,
    const Dataset& eval, const std::vector<ApproxConfig>& configs) {
  const ConfigEvaluator ev(&model, &sig, &eval, -1);
  DseOptions o;
  o.exact_sweep = true;
  const DseOutcome fast = run_dse(ev, configs, o);

  std::vector<DseResult> legacy(configs.size());
  for (size_t i = 0; i < configs.size(); ++i)
    legacy[i] = ev.evaluate(configs[i]);

  ASSERT_EQ(fast.results.size(), legacy.size());
  for (size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(fast.results[i].accuracy, legacy[i].accuracy) << "config " << i;
    EXPECT_EQ(fast.results[i].executed_macs, legacy[i].executed_macs);
    EXPECT_EQ(fast.results[i].skipped_conv_macs, legacy[i].skipped_conv_macs);
    EXPECT_EQ(fast.results[i].conv_mac_reduction,
              legacy[i].conv_mac_reduction);
    EXPECT_EQ(fast.results[i].cycles, legacy[i].cycles);
    EXPECT_EQ(fast.results[i].latency_reduction, legacy[i].latency_reduction);
    EXPECT_EQ(fast.results[i].flash_bytes, legacy[i].flash_bytes);
    EXPECT_EQ(fast.results[i].config.tau, legacy[i].config.tau);
  }

  std::vector<ParetoPoint> points;
  for (size_t i = 0; i < legacy.size(); ++i)
    points.push_back(
        {legacy[i].conv_mac_reduction, legacy[i].accuracy,
         static_cast<int>(i)});
  EXPECT_EQ(fast.pareto, pareto_front(points));

  // Exact mode: full image budget for everyone, reuse accounted.
  EXPECT_EQ(fast.early_exits, 0);
  EXPECT_EQ(fast.images_evaluated,
            static_cast<int64_t>(configs.size()) * eval.size());
  EXPECT_GT(fast.cache_hits, 0);
}

TEST_F(DseFastFixture, ExactSweepBitwiseMatchesPerConfigEvaluate) {
  {
    SCOPED_TRACE("chain");
    expect_exact_sweep_matches_legacy(
        *model_, *sig_, *eval_,
        with_full_skips(sweep_configs(), model_->approx_layer_count()));
  }
  // Depthwise: conv -> depthwise -> avgpool -> fc, so the cache's
  // unpacked variants and packed exact layers cover a depthwise layer
  // too.
  SCOPED_TRACE("depthwise");
  const QModel dw = testing::make_tiny_vww_qmodel(101);
  Dataset eval(ImageShape{dw.in_h, dw.in_w, dw.in_c}, 2);
  Rng rng(94);
  for (int i = 0; i < 60; ++i) {
    std::vector<uint8_t> img(static_cast<size_t>(dw.in_h) * dw.in_w * dw.in_c);
    for (auto& p : img) p = static_cast<uint8_t>(rng.next_int(0, 255));
    eval.add(img, rng.next_int(0, 1));
  }
  const std::vector<LayerSignificance> sig = compute_model_significance(
      dw, capture_activation_stats(dw, eval, 24));
  const auto configs = sweep_configs();
  expect_exact_sweep_matches_legacy(
      dw, sig, eval, with_full_skips(configs, dw.approx_layer_count()));
  // Skipping depthwise operands (ordinal 1) with the conv exact must
  // change some accuracy, or the parity is vacuous for the depthwise
  // variants. (Seed 101 keeps this fixture's two logits unsaturated.)
  const ConfigEvaluator ev(&dw, &sig, &eval, -1);
  const double exact_accuracy = ev.evaluate(configs[0]).accuracy;
  bool depthwise_matters = false;
  for (const ApproxConfig& c : configs) {
    if (c.tau[0] < 0.0 && ev.evaluate(c).accuracy != exact_accuracy)
      depthwise_matters = true;
  }
  EXPECT_TRUE(depthwise_matters);
}

// Operands sitting exactly on a config's tau as float: the cache's rung
// keys must count them by make_skip_mask's rule. A third of layer 0's
// operands get S == (float)0.3, which lies above 0.3, so a comparison
// in double would give taus 0.2 and 0.3 one key and so one rung.
TEST_F(DseFastFixture, ExactSweepMatchesPerConfigEvaluateAtTheSkipBoundary) {
  ASSERT_GT(static_cast<double>(static_cast<float>(0.3)), 0.3);
  std::vector<LayerSignificance> sig = *sig_;
  std::vector<float>& s0 = sig[0].S;
  for (size_t i = 0; i < s0.size(); ++i)
    s0[i] = i % 3 == 0 ? static_cast<float>(0.3) : i % 3 == 1 ? 0.05f : 0.9f;
  std::vector<ApproxConfig> configs = {ApproxConfig::exact(2)};
  for (const double t0 : {0.2, 0.3}) {
    for (const double t1 : {-1.0, 0.02}) {
      ApproxConfig c;
      c.tau = {t0, t1};
      configs.push_back(c);
    }
  }
  expect_exact_sweep_matches_legacy(*model_, sig, *eval_, configs);
  // Not vacuous: the boundary operands change the accuracy.
  const ConfigEvaluator ev(model_, &sig, eval_, -1);
  EXPECT_NE(ev.evaluate(configs[1]).accuracy, ev.evaluate(configs[3]).accuracy);
}

// One full exact pass over the chain fixture's sweep: the prefix cache's
// segment counters, recorded.
TEST_F(DseFastFixture, PrefixCacheStatsOfOneFullPassArePinned) {
  const auto configs = sweep_configs();
  const PrefixCache cache(model_, sig_, eval_, configs, -1);
  // Every config classifies every eval image.
  const std::vector<int> begin(configs.size(), 0);
  const std::vector<int> end(configs.size(), cache.eval_images());
  std::vector<uint8_t> hits(configs.size() *
                            static_cast<size_t>(cache.eval_images()));
  const PrefixCacheStats stats = cache.evaluate_ranges(begin, end, hits);
  EXPECT_EQ(stats.segments_run, 4800);
  EXPECT_EQ(stats.segments_reused, 2040);
}

// Staggered ranges reach trie nodes where only some siblings cover an
// image; each range must get exactly its share of a full pass's flags.
TEST_F(DseFastFixture, StaggeredRangesMatchAFullPass) {
  {
    SCOPED_TRACE("chain");
    const PrefixCache cache(
        model_, sig_, eval_,
        with_full_skips(sweep_configs(), model_->approx_layer_count()), -1);
    EXPECT_EQ(testing::first_staggered_range_mismatch(cache, 95, 6), "");
  }
  SCOPED_TRACE("depthwise");
  const DepthwiseCase dw;
  const PrefixCache cache(
      &dw.model, &dw.sig, &dw.eval,
      with_full_skips(sweep_configs(), dw.model.approx_layer_count()), -1);
  EXPECT_EQ(testing::first_staggered_range_mismatch(cache, 96, 6), "");
}

// --- adaptive early exit ------------------------------------------------

DseOptions aggressive_adaptive_options() {
  DseOptions o;
  o.eval_block = 8;
  o.exit_z = 1.0;       // ~68% interval: exits trigger on noise-level gaps
  o.exit_margin = 0.0;  // so this random-model space actually prunes
  return o;
}

TEST_F(DseFastFixture, AdaptiveSweepFullyEvaluatesBaselineAndFront) {
  const ConfigEvaluator ev(model_, sig_, eval_, -1);
  const auto configs = sweep_configs();
  const DseOutcome fast = run_dse(ev, configs, aggressive_adaptive_options());

  // The scenario must actually prune, or the invariants are vacuous.
  ASSERT_GT(fast.early_exits, 0);
  EXPECT_LT(fast.images_evaluated,
            static_cast<int64_t>(configs.size()) * eval_->size());

  // results[0] (all-exact) is always a full-sample measurement ...
  EXPECT_EQ(fast.results[0].accuracy, ev.evaluate(configs[0]).accuracy);
  EXPECT_EQ(fast.exact_accuracy, fast.results[0].accuracy);
  EXPECT_FALSE(fast.results[0].partial_eval);
  // ... and so is every Pareto member (bitwise equal to the full eval).
  for (const int idx : fast.pareto) {
    const DseResult& r = fast.results[static_cast<size_t>(idx)];
    EXPECT_FALSE(r.partial_eval);
    EXPECT_EQ(r.accuracy, ev.evaluate(r.config).accuracy)
        << "front member " << idx << " not fully evaluated";
  }

  // Early exits are flagged, and selection never trusts a partial
  // sample against an accuracy-loss budget.
  int partial = 0;
  for (const DseResult& r : fast.results) partial += r.partial_eval ? 1 : 0;
  EXPECT_EQ(partial, fast.early_exits);
  for (const double loss : {0.0, 0.05, 0.2}) {
    const int sel = select_design(fast, loss);
    if (sel >= 0) {
      EXPECT_FALSE(fast.results[static_cast<size_t>(sel)].partial_eval);
    }
  }
}

TEST_F(DseFastFixture, AdaptiveSweepDeterministicAcrossThreadCounts) {
  const ConfigEvaluator ev(model_, sig_, eval_, -1);
  const auto configs = sweep_configs();
  const DseOptions o = aggressive_adaptive_options();
  set_num_threads(1);
  const DseOutcome a = run_dse(ev, configs, o);
  set_num_threads(8);
  const DseOutcome b = run_dse(ev, configs, o);
  set_num_threads(0);

  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].accuracy, b.results[i].accuracy);
    EXPECT_EQ(a.results[i].cycles, b.results[i].cycles);
  }
  EXPECT_EQ(a.pareto, b.pareto);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.images_evaluated, b.images_evaluated);
  EXPECT_EQ(a.early_exits, b.early_exits);
}

// The progress contract in both modes: `total` is always the config
// count, `done` never decreases, and the last call is (n, n). An exact
// sweep reports configs' worth of evaluated images after every block
// but the last, so a long sweep keeps moving.
TEST_F(DseFastFixture, SweepProgressIsMonotoneAndEndsAtTheConfigCount) {
  const ConfigEvaluator ev(model_, sig_, eval_, -1);
  const auto configs = sweep_configs();
  const int n = static_cast<int>(configs.size());
  for (const bool exact : {false, true}) {
    SCOPED_TRACE(exact ? "exact sweep" : "adaptive sweep");
    DseOptions o = aggressive_adaptive_options();
    o.exact_sweep = exact;
    std::vector<std::pair<int, int>> calls;
    run_dse(ev, configs, o,
            [&](int done, int total) { calls.emplace_back(done, total); });
    ASSERT_FALSE(calls.empty());
    for (size_t i = 0; i < calls.size(); ++i) {
      EXPECT_EQ(calls[i].second, n) << "call " << i;
      if (i > 0) {
        EXPECT_GE(calls[i].first, calls[i - 1].first) << "call " << i;
      }
    }
    EXPECT_EQ(calls.back(), std::make_pair(n, n));
    if (exact) {
      std::vector<std::pair<int, int>> blocks;
      for (int end = o.eval_block; end < eval_->size(); end += o.eval_block)
        blocks.emplace_back(n * end / eval_->size(), n);
      blocks.emplace_back(n, n);
      EXPECT_EQ(calls, blocks);
    }
  }
}

}  // namespace
}  // namespace ataman
