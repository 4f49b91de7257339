// Depthwise-separable operator coverage: kernel parity across all four
// engines, per-channel skip-mask semantics, int8 average-pool rounding,
// covering-geometry validation, and the full train -> quantize ->
// significance -> DSE -> select -> codegen pipeline on the dscnn
// (MLPerf-Tiny-KWS-shaped) architecture.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "src/cmsisnn/packed_kernels.hpp"
#include "src/codegen/c_emitter.hpp"
#include "src/core/ataman.hpp"
#include "src/core/engine_iface.hpp"
#include "src/nn/engine.hpp"
#include "src/nn/qkernels_ref.hpp"
#include "src/quant/qmodel_io.hpp"
#include "src/quant/quantizer.hpp"
#include "src/sig/act_stats.hpp"
#include "src/sig/significance.hpp"
#include "src/sig/skip_plan.hpp"
#include "src/unpack/unpacked_engine.hpp"
#include "src/unpack/unpacked_layer.hpp"
#include "tests/test_util.hpp"

namespace ataman {
namespace {

using testing::make_random_image;
using testing::make_random_input;
using testing::make_random_qdw;

// --- depthwise kernel parity -------------------------------------------

TEST(Depthwise, PackedAndUnpackedMatchReference) {
  // Five images (a full lane block and a ragged tail); at 3x3 stride 1,
  // out_w 9 is one position block and a tail, out_w 18 two full blocks
  // and a tail, out_w 16 two full blocks; stride 3 splits each channel
  // into three phase planes (out_w 7 and 9).
  struct Geom {
    int in_w, kernel, stride, pad;
  };
  constexpr int kBatch = 5;
  for (const Geom geom : {Geom{9, 3, 1, 1}, Geom{18, 3, 1, 1},
                          Geom{16, 3, 1, 1}, Geom{20, 3, 3, 1},
                          Geom{25, 5, 3, 2}}) {
    const int in_w = geom.in_w;
    SCOPED_TRACE("in_w " + std::to_string(in_w) + " kernel " +
                 std::to_string(geom.kernel) + " stride " +
                 std::to_string(geom.stride));
    for (const uint64_t seed : {1u, 2u, 3u}) {
      const QDepthwiseConv2D dw = make_random_qdw(
          9, in_w, 5, geom.kernel, geom.stride, geom.pad, seed);
      const size_t in_elems = static_cast<size_t>(9) * in_w * 5;
      const size_t out_elems =
          static_cast<size_t>(dw.positions()) * dw.channels;
      const auto in = make_random_input(
          static_cast<int64_t>(in_elems) * kBatch, seed + 100);
      std::vector<int8_t> ref_out(out_elems * kBatch);
      for (size_t b = 0; b < kBatch; ++b) {
        depthwise_conv2d_ref(
            dw, std::span(in).subspan(b * in_elems, in_elems),
            std::span(ref_out).subspan(b * out_elems, out_elems));
      }
      const UnpackedLayer unpacked = UnpackedLayer::build(dw);
      for (const int batch : {1, kBatch}) {
        const auto in_b = std::span(in).first(batch * in_elems);
        const std::vector<int8_t> want(
            ref_out.begin(), ref_out.begin() + batch * out_elems);
        std::vector<int8_t> packed_out(want.size());
        std::vector<int8_t> unpacked_out(want.size());
        packed_depthwise_conv2d(dw, in_b, packed_out, batch);
        unpacked.run(in_b, unpacked_out, batch);
        EXPECT_EQ(want, packed_out) << "seed " << seed << " batch " << batch;
        EXPECT_EQ(want, unpacked_out) << "seed " << seed << " batch " << batch;
        EXPECT_EQ(testing::first_column_range_mismatch(
                      [&](ColumnRange range, std::span<int8_t> out) {
                        packed_depthwise_conv2d(dw, in_b, out, batch, {},
                                                range);
                      },
                      want, dw.out_w(), dw.channels),
                  "")
            << "seed " << seed << " batch " << batch;
      }
    }
  }
}

TEST(Depthwise, StrideAndNoPadGeometry) {
  const QDepthwiseConv2D dw =
      make_random_qdw(9, 9, 4, /*kernel=*/3, /*stride=*/2, /*pad=*/0, 7);
  EXPECT_EQ(dw.out_h(), 4);
  EXPECT_EQ(dw.patch_size(), 9);
  EXPECT_EQ(dw.macs(), 4 * 4 * 4 * 9);
  const auto in = make_random_input(9 * 9 * 4, 77);
  std::vector<int8_t> a(static_cast<size_t>(dw.positions()) * dw.channels);
  std::vector<int8_t> b(a.size());
  depthwise_conv2d_ref(dw, in, a);
  packed_depthwise_conv2d(dw, in, b);
  EXPECT_EQ(a, b);
}

// Skipping a depthwise operand (channel, tap) removes exactly that
// product: masked ref == unpacked-with-skip == ref over the
// zeroed-weight copy.
TEST(Depthwise, SkipMaskSemantics) {
  const QDepthwiseConv2D dw =
      make_random_qdw(8, 8, 6, /*kernel=*/3, /*stride=*/1, /*pad=*/1, 11);
  const int patch = dw.patch_size();

  // Skip a deterministic scatter of (channel, tap) operands.
  std::vector<uint8_t> skip(static_cast<size_t>(dw.weight_count()), 0);
  for (int ch = 0; ch < dw.channels; ++ch)
    for (int p = 0; p < patch; ++p)
      if ((ch * 31 + p * 7) % 3 == 0)
        skip[static_cast<size_t>(ch) * patch + p] = 1;

  // Zeroed-weight copy through the mask/weight index mapping.
  QDepthwiseConv2D zeroed = dw;
  for (int ch = 0; ch < dw.channels; ++ch)
    for (int p = 0; p < patch; ++p)
      if (skip[static_cast<size_t>(ch) * patch + p])
        zeroed.weights[dw_weight_index(ch, p, dw.channels)] = 0;

  const auto in = make_random_input(8 * 8 * 6, 111);
  std::vector<int8_t> masked(static_cast<size_t>(dw.positions()) *
                             dw.channels);
  std::vector<int8_t> unpacked(masked.size());
  std::vector<int8_t> zeroed_out(masked.size());
  depthwise_conv2d_ref(dw, in, masked, skip.data());
  UnpackedLayer::build(dw, skip.data()).run(in, unpacked);
  depthwise_conv2d_ref(zeroed, in, zeroed_out);
  EXPECT_EQ(masked, unpacked);
  EXPECT_EQ(masked, zeroed_out);

  // Static accounting: every skipped operand drops one MAC per position.
  const UnpackedLayer u = UnpackedLayer::build(dw, skip.data());
  int64_t skipped = 0;
  for (const uint8_t v : skip) skipped += v;
  EXPECT_EQ(u.retained_macs(), dw.macs() - skipped * dw.positions());
}

// --- average pool -------------------------------------------------------

TEST(AvgPool, RoundsHalfAwayFromZero) {
  QAvgPool pool;
  pool.in_h = 2;
  pool.in_w = 2;
  pool.channels = 1;
  pool.kernel = 2;
  pool.stride = 2;
  // sum = 5 over 4 taps -> 1.25 -> 1; sum = 6 -> 1.5 -> 2 (away from 0);
  // sum = -6 -> -1.5 -> -2; sum = -5 -> -1.25 -> -1.
  const std::vector<std::pair<std::vector<int8_t>, int8_t>> cases = {
      {{2, 1, 1, 1}, 1},
      {{2, 2, 1, 1}, 2},
      {{-2, -2, -1, -1}, -2},
      {{-2, -1, -1, -1}, -1},
      {{127, 127, 127, 127}, 127},
      {{-128, -128, -128, -128}, -128},
  };
  for (const auto& [in, expected] : cases) {
    std::vector<int8_t> out(1);
    avgpool_ref(pool, in, out);
    EXPECT_EQ(out[0], expected)
        << "inputs " << static_cast<int>(in[0]) << ","
        << static_cast<int>(in[1]) << "," << static_cast<int>(in[2]) << ","
        << static_cast<int>(in[3]);
  }
}

TEST(AvgPool, GlobalPoolAveragesWholeMap) {
  QAvgPool pool;
  pool.in_h = 4;
  pool.in_w = 4;
  pool.channels = 2;
  pool.kernel = 4;
  pool.stride = 4;
  std::vector<int8_t> in(4 * 4 * 2);
  int32_t sum0 = 0, sum1 = 0;
  Rng rng(5);
  for (int i = 0; i < 16; ++i) {
    in[static_cast<size_t>(i) * 2] = static_cast<int8_t>(rng.next_int(-90, 90));
    in[static_cast<size_t>(i) * 2 + 1] =
        static_cast<int8_t>(rng.next_int(-90, 90));
    sum0 += in[static_cast<size_t>(i) * 2];
    sum1 += in[static_cast<size_t>(i) * 2 + 1];
  }
  std::vector<int8_t> out(2);
  avgpool_ref(pool, in, out);
  const auto rounded = [](int32_t s) {
    return static_cast<int8_t>(s >= 0 ? (s + 8) / 16 : (s - 8) / 16);
  };
  EXPECT_EQ(out[0], rounded(sum0));
  EXPECT_EQ(out[1], rounded(sum1));
}

// --- covering-geometry validation (satellite: QMaxPool silently
// truncated non-covering windows before) ---------------------------------

TEST(PoolGeometry, NonCoveringGeometryHardErrors) {
  QMaxPool bad;
  bad.in_h = 5;  // (5 - 2) % 2 != 0
  bad.in_w = 5;
  bad.channels = 1;
  bad.kernel = 2;
  bad.stride = 2;
  std::vector<int8_t> in(25, 0), out(4, 0);
  EXPECT_THROW(maxpool_ref(bad, in, out), Error);

  QAvgPool bad_avg;
  bad_avg.in_h = 7;  // (7 - 2) % 2 != 0
  bad_avg.in_w = 7;
  bad_avg.channels = 1;
  bad_avg.kernel = 2;
  bad_avg.stride = 2;
  std::vector<int8_t> in2(49, 0), out2(9, 0);
  EXPECT_THROW(avgpool_ref(bad_avg, in2, out2), Error);

  // The architecture path rejects it at model-construction time, before
  // any engine could disagree on edge pixels.
  ModelArch arch;
  arch.name = "bad-pool";
  arch.layers = {LayerSpec::conv(4, 3, 1, 1), LayerSpec::pool(3, 2)};
  Rng rng(1);
  EXPECT_THROW(Network(arch, ImageShape{}, rng), Error);
}

// --- depthwise significance ---------------------------------------------

TEST(DepthwiseSignificance, MatchesBruteForcePerChannel) {
  const QDepthwiseConv2D dw =
      make_random_qdw(6, 6, 3, /*kernel=*/3, /*stride=*/1, /*pad=*/1, 23);
  const int patch = dw.patch_size();
  ConvInputStats stats;
  stats.mean_corrected.resize(static_cast<size_t>(patch) * dw.channels);
  Rng rng(29);
  for (auto& v : stats.mean_corrected) v = rng.next_double() * 20.0 - 10.0;
  stats.samples = 100;

  const LayerSignificance sig = compute_significance(dw, stats);
  EXPECT_EQ(sig.out_c, dw.channels);
  EXPECT_EQ(sig.patch, patch);
  for (int ch = 0; ch < dw.channels; ++ch) {
    double denom = 0.0;
    for (int p = 0; p < patch; ++p) {
      denom += stats.mean_corrected[dw_weight_index(ch, p, dw.channels)] *
               dw.weights[dw_weight_index(ch, p, dw.channels)];
    }
    ASSERT_NE(denom, 0.0);
    for (int p = 0; p < patch; ++p) {
      const double contrib =
          stats.mean_corrected[dw_weight_index(ch, p, dw.channels)] *
          dw.weights[dw_weight_index(ch, p, dw.channels)];
      EXPECT_NEAR(sig.significance(ch, p), std::abs(contrib / denom), 1e-6)
          << "channel " << ch << " tap " << p;
    }
  }
}

// --- generated C for the new operators ----------------------------------

// conv -> depthwise -> avgpool -> dense, chained quant params, 12x12x3.
QModel make_ds_block_qmodel(uint64_t seed) {
  QModel m;
  m.name = "ds-block";
  m.topology = "1+1ds-1";
  m.in_h = 12;
  m.in_w = 12;
  m.in_c = 3;
  m.input = {1.0f / 255.0f, -128};

  ConvGeom g;
  g.in_h = 12; g.in_w = 12; g.in_c = 3;
  g.out_c = 6; g.kernel = 3; g.stride = 1; g.pad = 1;
  QConv2D conv = testing::make_random_qconv(g, seed + 1, /*folded_relu=*/true);
  conv.in = m.input;
  refresh_requant(conv);
  conv.act_min = conv.out.zero_point;

  QDepthwiseConv2D dw = make_random_qdw(12, 12, 6, 3, 1, 1, seed + 2,
                                        /*folded_relu=*/true);
  dw.in = conv.out;
  refresh_requant(dw);
  dw.act_min = dw.out.zero_point;

  QAvgPool pool;
  pool.in_h = 12; pool.in_w = 12; pool.channels = 6;
  pool.kernel = 2; pool.stride = 2;

  QDense fc = testing::make_random_qdense(6 * 6 * 6, 10, seed + 3);
  fc.in = dw.out;
  fc.requant = quantize_multiplier(
      static_cast<double>(fc.in.scale) * fc.w_scale / fc.out.scale);

  m.layers.emplace_back(std::move(conv));
  m.layers.emplace_back(std::move(dw));
  m.layers.emplace_back(pool);
  m.layers.emplace_back(std::move(fc));
  return m;
}

TEST(DepthwiseCodegen, CompiledModelMatchesEngineBitExact) {
  if (std::system("cc --version > /dev/null 2>&1") != 0)
    GTEST_SKIP() << "no host C compiler";
  const QModel m = make_ds_block_qmodel(400);
  SkipMask mask = SkipMask::none(m);
  Rng rng(401);
  for (auto& layer_mask : mask.masks)
    for (auto& v : layer_mask) v = rng.next_bool(0.3) ? 1 : 0;

  const std::string dir = "/tmp/ataman_depthwise_codegen";
  std::filesystem::remove_all(dir);
  write_text_file(dir + "/model.c", emit_model_c(m, &mask));
  const std::string driver = R"(
#include <stdint.h>
#include <stdio.h>
extern void ataman_run(const uint8_t* image, int8_t* logits);
extern const int ataman_num_classes;
int main(void) {
  uint8_t img[12*12*3];
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
      << "generated depthwise C failed to compile";

  const UnpackedEngine engine(&m, &mask);
  for (int trial = 0; trial < 4; ++trial) {
    const auto img = make_random_image(12 * 12 * 3, 500 + trial);
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

// --- the dscnn end-to-end pipeline --------------------------------------

class DscnnPipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ZooSpec spec = dscnn_spec();
    spec.data.train_images = 700;
    spec.data.test_images = 300;
    spec.train.epochs = 3;
    spec.train.lr_decay_at = {2};
    TrainedModel trained = train_from_scratch(spec, /*verbose=*/false);
    data_ = new SynthCifar(make_synth_cifar(spec.data));
    qmodel_ = new QModel(quantize_model(trained.net, data_->train));

    PipelineOptions opts;
    opts.dse.eval_images = 150;
    opts.dse.tau_step = 0.05;
    opts.dse.max_configs = 96;  // subset mode over 9 approx layers is big
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

SynthCifar* DscnnPipeline::data_ = nullptr;
QModel* DscnnPipeline::qmodel_ = nullptr;
AtamanPipeline* DscnnPipeline::pipe_ = nullptr;
DseOutcome* DscnnPipeline::outcome_ = nullptr;

TEST_F(DscnnPipeline, QuantizedModelHasTheExpectedOperators) {
  // 5 conv + 4 depthwise + 1 avgpool + 1 dense (ReLU folded).
  EXPECT_EQ(qmodel_->conv_layer_count(), 5);
  EXPECT_EQ(qmodel_->approx_layer_count(), 9);
  EXPECT_EQ(qmodel_->layers.size(), 11u);
  int dw_count = 0, avg_count = 0;
  for (const QLayer& layer : qmodel_->layers) {
    const OpDescriptor d = describe_layer(layer);
    dw_count += d.kind == OpKind::kDepthwise ? 1 : 0;
    avg_count += d.kind == OpKind::kAvgPool ? 1 : 0;
  }
  EXPECT_EQ(dw_count, 4);
  EXPECT_EQ(avg_count, 1);
  // Depthwise MACs are part of the approximable budget.
  EXPECT_GT(qmodel_->approx_mac_count(), 0);
  EXPECT_GT(qmodel_->mac_count(), qmodel_->approx_mac_count());
}

TEST_F(DscnnPipeline, FourEngineBitwiseParityOnExactConfig) {
  const RefEngine oracle(qmodel_);
  EngineConfig cfg;
  cfg.model = qmodel_;
  for (const char* name : {"ref", "cmsis", "unpacked", "xcube"}) {
    const auto engine = EngineRegistry::instance().create(name, cfg);
    for (int i = 0; i < 12; ++i) {
      const auto img = data_->test.image(i);
      EXPECT_EQ(engine->run(img), oracle.run(img))
          << name << " image " << i;
    }
  }
}

TEST_F(DscnnPipeline, SweepEngagedPrefixCacheAndAdaptiveEval) {
  EXPECT_GT(outcome_->results.size(), 10u);
  // Fast-sweep counters: the prefix cache reused segments and the
  // adaptive sweep evaluated a nonzero image volume.
  EXPECT_GT(outcome_->cache_hits, 0);
  EXPECT_GT(outcome_->images_evaluated, 0);
  EXPECT_GE(outcome_->early_exits, 0);
  // Depthwise taus actually produce skips: some swept config must
  // remove MACs relative to exact.
  bool any_reduction = false;
  for (const DseResult& r : outcome_->results)
    any_reduction |= r.skipped_conv_macs > 0;
  EXPECT_TRUE(any_reduction);
}

TEST_F(DscnnPipeline, RefEqualsUnpackedOnEverySweptConfig) {
  // Masked reference inference == unpacked engine with the skips
  // compiled out, for every approximate config the sweep produced.
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

TEST_F(DscnnPipeline, SelectsAndGeneratesDepthwiseCode) {
  const int idx = pipe_->select(*outcome_, 0.10);
  ASSERT_GE(idx, 0);
  const ApproxConfig& cfg = outcome_->results[static_cast<size_t>(idx)].config;
  EXPECT_EQ(cfg.tau.size(), 9u);

  const std::string code = pipe_->generate_code(cfg);
  EXPECT_NE(code.find("_dw0"), std::string::npos);
  EXPECT_NE(code.find("_dw3"), std::string::npos);
  EXPECT_NE(code.find("_avgpool0"), std::string::npos);
  EXPECT_NE(code.find("_run"), std::string::npos);

  // Deployment through the unpacked engine agrees with the DSE row.
  const DseResult& r = outcome_->results[static_cast<size_t>(idx)];
  const DeployReport dep = pipe_->deploy(cfg, "dscnn-approx", 150);
  EXPECT_DOUBLE_EQ(dep.top1_accuracy, r.accuracy);
  EXPECT_EQ(dep.cycles, r.cycles);
  EXPECT_EQ(dep.mac_ops, r.executed_macs);
}

TEST_F(DscnnPipeline, QModelSerializationRoundTripsNewOperators) {
  const std::string dir = "/tmp/ataman_dscnn_roundtrip";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/dscnn.qm";
  save_qmodel(*qmodel_, path);
  const QModel loaded = load_qmodel(path);
  ASSERT_EQ(loaded.layers.size(), qmodel_->layers.size());
  EXPECT_EQ(loaded.approx_layer_count(), qmodel_->approx_layer_count());
  const RefEngine a(qmodel_), b(&loaded);
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(a.run(data_->test.image(i)), b.run(data_->test.image(i)));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ataman
