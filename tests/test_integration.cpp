// End-to-end integration: the full Fig. 1 pipeline on a small trained
// model — train, quantize, analyze, explore, select, deploy; plus the
// cross-engine agreements the framework's claims rest on.
#include <gtest/gtest.h>

#include <filesystem>
#include <limits>

#include "src/cmsisnn/cmsis_engine.hpp"
#include "src/core/ataman.hpp"
#include "src/nn/engine.hpp"
#include "src/unpack/unpacked_engine.hpp"

namespace ataman {
namespace {

// One shared trained+quantized micronet for every test in this file.
class Pipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ZooSpec spec = micronet_spec();
    spec.data.train_images = 900;
    spec.data.test_images = 400;
    spec.train.epochs = 5;
    spec.train.lr_decay_at = {4};
    TrainedModel trained = train_from_scratch(spec, /*verbose=*/false);
    data_ = new SynthCifar(make_synth_cifar(spec.data));
    qmodel_ = new QModel(quantize_model(trained.net, data_->train));

    PipelineOptions opts;
    opts.dse.eval_images = 200;
    opts.dse.tau_step = 0.02;
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

SynthCifar* Pipeline::data_ = nullptr;
QModel* Pipeline::qmodel_ = nullptr;
AtamanPipeline* Pipeline::pipe_ = nullptr;
DseOutcome* Pipeline::outcome_ = nullptr;

TEST_F(Pipeline, AnalyzeProducesSignificancePerConvLayer) {
  ASSERT_TRUE(pipe_->analyzed());
  EXPECT_EQ(static_cast<int>(pipe_->significance().size()),
            qmodel_->approx_layer_count());
  for (const LayerSignificance& sig : pipe_->significance()) {
    EXPECT_GT(sig.out_c, 0);
    EXPECT_GT(sig.patch, 0);
    EXPECT_EQ(sig.S.size(), static_cast<size_t>(sig.out_c) * sig.patch);
  }
}

TEST_F(Pipeline, ExploreFindsNonTrivialPareto) {
  EXPECT_GT(outcome_->results.size(), 10u);
  EXPECT_GE(outcome_->pareto.size(), 2u);
  // At least one approximate design reduces MACs by > 10% while staying
  // within 10% accuracy of the exact baseline (the paper finds far more).
  bool found = false;
  for (const DseResult& r : outcome_->results) {
    if (r.conv_mac_reduction > 0.10 &&
        r.accuracy >= outcome_->exact_accuracy - 0.10)
      found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(Pipeline, ZeroLossSelectionDoesNotDegradeAccuracy) {
  const int idx = pipe_->select(*outcome_, 0.0);
  ASSERT_GE(idx, 0);
  const DseResult& r = outcome_->results[static_cast<size_t>(idx)];
  EXPECT_GE(r.accuracy, outcome_->exact_accuracy - 1e-12);
  // And it is faster than (or equal to) the exact unpacked design.
  EXPECT_LE(r.cycles, outcome_->results[0].cycles);
}

TEST_F(Pipeline, LooserThresholdsAreMonotonicallyFaster) {
  int64_t prev_cycles = std::numeric_limits<int64_t>::max();
  for (const double loss : {0.0, 0.05, 0.10}) {
    const int idx = pipe_->select(*outcome_, loss);
    ASSERT_GE(idx, 0) << "loss " << loss;
    const int64_t cycles =
        outcome_->results[static_cast<size_t>(idx)].cycles;
    EXPECT_LE(cycles, prev_cycles);
    prev_cycles = cycles;
  }
}

TEST_F(Pipeline, DeployedReportMatchesDseEstimates) {
  const int idx = pipe_->select(*outcome_, 0.05);
  ASSERT_GE(idx, 0);
  const DseResult& r = outcome_->results[static_cast<size_t>(idx)];
  const DeployReport dep =
      pipe_->deploy(r.config, "ataman(5%)", /*eval_limit=*/200);
  // The DSE evaluates with masked reference inference; deployment runs
  // the actual unpacked engine. Accuracy and cycles must agree exactly.
  EXPECT_DOUBLE_EQ(dep.top1_accuracy, r.accuracy);
  EXPECT_EQ(dep.cycles, r.cycles);
  EXPECT_EQ(dep.flash_bytes, r.flash_bytes);
  EXPECT_EQ(dep.mac_ops, r.executed_macs);
}

TEST_F(Pipeline, BaselineReportsAreOrderedAsInThePaper) {
  const DeployReport cmsis = pipe_->deploy_engine("cmsis", /*eval_limit=*/200);
  const DeployReport xcube = pipe_->deploy_engine("xcube", /*eval_limit=*/200);
  // Exact engines agree on accuracy (bit-exact numerics).
  EXPECT_DOUBLE_EQ(cmsis.top1_accuracy, xcube.top1_accuracy);
  // X-CUBE-AI is the faster exact library (Table II).
  EXPECT_LT(xcube.latency_ms, cmsis.latency_ms);

  const int idx = pipe_->select(*outcome_, 0.10);
  ASSERT_GE(idx, 0);
  const DeployReport ours = pipe_->deploy(
      outcome_->results[static_cast<size_t>(idx)].config, "ataman(10%)",
      /*eval_limit=*/200);
  // At a 10% budget the approximate design beats the exact baseline.
  EXPECT_LT(ours.latency_ms, cmsis.latency_ms);
  EXPECT_LT(ours.mac_ops, cmsis.mac_ops);
  // Flash grows (code unpacking) but must still fit the board.
  EXPECT_GT(ours.flash_bytes, 0);
  EXPECT_TRUE(ours.fits_flash);
  EXPECT_TRUE(ours.fits_ram);
}

TEST_F(Pipeline, MaskedReferenceEqualsUnpackedEngineOnSelectedDesign) {
  const int idx = pipe_->select(*outcome_, 0.05);
  ASSERT_GE(idx, 0);
  const SkipMask mask =
      pipe_->mask_for(outcome_->results[static_cast<size_t>(idx)].config);
  RefEngine ref(qmodel_);
  UnpackedEngine up(qmodel_, &mask);
  for (int i = 0; i < 25; ++i) {
    ASSERT_EQ(ref.run(data_->test.image(i), &mask),
              up.run(data_->test.image(i)))
        << "image " << i;
  }
}

TEST_F(Pipeline, GeneratedCodeReflectsSelectedConfig) {
  const int idx = pipe_->select(*outcome_, 0.10);
  ASSERT_GE(idx, 0);
  const ApproxConfig& cfg =
      outcome_->results[static_cast<size_t>(idx)].config;
  const std::string code = pipe_->generate_code(cfg);
  EXPECT_NE(code.find("_run"), std::string::npos);
  // The exact build has at least as many MAC instructions as the
  // approximate one.
  const std::string exact_code =
      pipe_->generate_code(ApproxConfig::exact(qmodel_->approx_layer_count()));
  const auto count_smlad = [](const std::string& s) {
    size_t n = 0, pos = 0;
    while ((pos = s.find("_smlad(0x", pos)) != std::string::npos) {
      ++n;
      ++pos;
    }
    return n;
  };
  EXPECT_LE(count_smlad(code), count_smlad(exact_code));
}

TEST_F(Pipeline, QModelCacheRoundTripPreservesBehaviour) {
  const std::string dir = "/tmp/ataman_integration_cache";
  ZooSpec spec = micronet_spec();
  spec.data.train_images = 300;
  spec.data.test_images = 100;
  spec.train.epochs = 2;
  const QModel a = get_or_build_qmodel(spec, dir);  // trains + caches
  const QModel b = get_or_build_qmodel(spec, dir);  // loads from cache
  const SynthCifar data = make_synth_cifar(spec.data);
  RefEngine ea(&a), eb(&b);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(ea.run(data.test.image(i)), eb.run(data.test.image(i)));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ataman
