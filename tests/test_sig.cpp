// Significance analysis: Eq. (2) correctness, zero-sum rule, skip-set
// nesting, activation statistics capture.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "src/common/error.hpp"
#include "src/common/parallel.hpp"
#include "src/nn/engine.hpp"
#include "src/sig/act_stats.hpp"
#include "src/sig/significance.hpp"
#include "src/sig/skip_plan.hpp"
#include "tests/test_util.hpp"

namespace ataman {
namespace {

using testing::make_random_qconv;
using testing::make_random_qdense;
using testing::make_random_qdw;
using testing::make_residual_qmodel;
using testing::make_tiny_qmodel;
using testing::make_tiny_vww_qmodel;

ConvInputStats constant_stats(int patch, double value) {
  ConvInputStats s;
  s.mean_corrected.assign(static_cast<size_t>(patch), value);
  s.samples = 100;
  return s;
}

TEST(Significance, MatchesManualEq2) {
  ConvGeom g;
  g.in_h = 3; g.in_w = 3; g.in_c = 1;
  g.out_c = 1; g.kernel = 1; g.stride = 1; g.pad = 0;  // patch 1? too small
  g.in_c = 4;  // patch 4
  QConv2D conv = make_random_qconv(g, 42);
  conv.weights = {10, -20, 30, -40};

  ConvInputStats stats;
  stats.mean_corrected = {1.0, 2.0, 3.0, 4.0};
  stats.samples = 10;

  const LayerSignificance sig = compute_significance(conv, stats);
  // contributions: 10, -40, 90, -160; sum = -100.
  EXPECT_NEAR(sig.significance(0, 0), std::abs(10.0 / -100.0), 1e-6);
  EXPECT_NEAR(sig.significance(0, 1), std::abs(-40.0 / -100.0), 1e-6);
  EXPECT_NEAR(sig.significance(0, 2), std::abs(90.0 / -100.0), 1e-6);
  EXPECT_NEAR(sig.significance(0, 3), std::abs(-160.0 / -100.0), 1e-6);
}

TEST(Significance, SignedContributionsSumToDenominator) {
  // Internal consistency: sum_i E[a_i] w_i / denom == 1 by construction;
  // |S_i| loses sign so we recompute with signs from weights.
  ConvGeom g;
  g.in_h = 4; g.in_w = 4; g.in_c = 3;
  g.out_c = 5; g.kernel = 3; g.stride = 1; g.pad = 1;
  const QConv2D conv = make_random_qconv(g, 43);
  ConvInputStats stats;
  Rng rng(44);
  for (int i = 0; i < g.patch_size(); ++i)
    stats.mean_corrected.push_back(rng.next_uniform(-5.0f, 50.0f));
  stats.samples = 10;

  const LayerSignificance sig = compute_significance(conv, stats);
  for (int oc = 0; oc < g.out_c; ++oc) {
    double denom = 0.0;
    for (int i = 0; i < g.patch_size(); ++i)
      denom += stats.mean_corrected[static_cast<size_t>(i)] *
               conv.weights[static_cast<size_t>(oc) * g.patch_size() + i];
    if (denom == 0.0) continue;
    double signed_sum = 0.0;
    for (int i = 0; i < g.patch_size(); ++i) {
      const double contrib =
          stats.mean_corrected[static_cast<size_t>(i)] *
          conv.weights[static_cast<size_t>(oc) * g.patch_size() + i];
      const double s = sig.significance(oc, i);
      signed_sum += (contrib / denom >= 0 ? s : -s);
    }
    EXPECT_NEAR(signed_sum, 1.0, 1e-4) << "channel " << oc;
  }
}

TEST(Significance, ZeroSumChannelRetainsEverything) {
  ConvGeom g;
  g.in_h = 3; g.in_w = 3; g.in_c = 2;
  g.out_c = 1; g.kernel = 1; g.stride = 1; g.pad = 0;  // patch 2
  QConv2D conv = make_random_qconv(g, 45);
  conv.weights = {5, -5};
  const auto sig =
      compute_significance(conv, constant_stats(g.patch_size(), 3.0));
  EXPECT_TRUE(std::isinf(sig.significance(0, 0)));
  EXPECT_TRUE(std::isinf(sig.significance(0, 1)));

  // +inf never satisfies S <= tau: no skipping even at huge tau.
  QModel m;
  m.name = "zero-sum";
  m.in_h = 3; m.in_w = 3; m.in_c = 2;
  m.input = {1.0f / 255.0f, -128};
  m.layers.emplace_back(conv);
  const SkipMask mask =
      make_skip_mask(m, {sig}, ApproxConfig::uniform(1, 1e9));
  EXPECT_TRUE(mask.empty());
}

TEST(Significance, AscendingOrderSorted) {
  ConvGeom g;
  g.in_h = 5; g.in_w = 5; g.in_c = 4;
  g.out_c = 3; g.kernel = 3; g.stride = 1; g.pad = 1;
  const QConv2D conv = make_random_qconv(g, 46);
  ConvInputStats stats;
  Rng rng(47);
  for (int i = 0; i < g.patch_size(); ++i)
    stats.mean_corrected.push_back(rng.next_uniform(0.0f, 20.0f));
  stats.samples = 5;
  const auto sig = compute_significance(conv, stats);
  for (int oc = 0; oc < g.out_c; ++oc) {
    const auto& order = sig.ascending[static_cast<size_t>(oc)];
    ASSERT_EQ(order.size(), static_cast<size_t>(g.patch_size()));
    for (size_t i = 1; i < order.size(); ++i)
      EXPECT_LE(sig.significance(oc, static_cast<int>(order[i - 1])),
                sig.significance(oc, static_cast<int>(order[i])));
  }
}

TEST(SkipPlan, NestingInTau) {
  // tau1 <= tau2 -> skip(tau1) subset of skip(tau2). The property the
  // whole DSE sweep relies on.
  const QModel m = make_tiny_qmodel(48);
  Dataset calib(ImageShape{12, 12, 3}, 10);
  Rng rng(49);
  for (int i = 0; i < 24; ++i) {
    std::vector<uint8_t> img(12 * 12 * 3);
    for (auto& p : img) p = static_cast<uint8_t>(rng.next_int(0, 255));
    calib.add(img, rng.next_int(0, 9));
  }
  const auto stats = capture_activation_stats(m, calib, 24);
  const auto sig = compute_model_significance(m, stats);

  const double taus[] = {0.0, 0.001, 0.01, 0.05, 0.1};
  SkipMask prev;
  for (const double tau : taus) {
    const SkipMask cur = make_skip_mask(
        m, sig, ApproxConfig::uniform(m.approx_layer_count(), tau));
    if (!prev.masks.empty()) {
      for (size_t l = 0; l < cur.masks.size(); ++l)
        for (size_t i = 0; i < cur.masks[l].size(); ++i)
          EXPECT_LE(prev.masks[l][i], cur.masks[l][i])
              << "nesting violated at layer " << l << " operand " << i;
    }
    prev = cur;
  }
}

TEST(SkipPlan, ExactConfigSkipsNothing) {
  const QModel m = make_tiny_qmodel(50);
  std::vector<LayerSignificance> sig;
  int ordinal = 0;
  for (const QLayer& layer : m.layers) {
    if (const auto* conv = std::get_if<QConv2D>(&layer)) {
      sig.push_back(compute_significance(
          *conv, constant_stats(conv->geom.patch_size(), 1.0)));
      ++ordinal;
    }
  }
  const SkipMask mask =
      make_skip_mask(m, sig, ApproxConfig::exact(m.approx_layer_count()));
  EXPECT_TRUE(mask.empty());
}

TEST(SkipPlan, PerLayerTauTargetsOnlySelectedLayers) {
  const QModel m = make_tiny_qmodel(51);
  std::vector<LayerSignificance> sig;
  for (const QLayer& layer : m.layers) {
    if (const auto* conv = std::get_if<QConv2D>(&layer))
      sig.push_back(compute_significance(
          *conv, constant_stats(conv->geom.patch_size(), 2.0)));
  }
  ApproxConfig cfg = ApproxConfig::exact(2);
  cfg.tau[1] = 0.05;  // approximate only conv1
  const SkipMask mask = make_skip_mask(m, sig, cfg);
  int64_t skipped0 = 0, skipped1 = 0;
  for (const uint8_t v : mask.masks[0]) skipped0 += v;
  for (const uint8_t v : mask.masks[1]) skipped1 += v;
  EXPECT_EQ(skipped0, 0);
  EXPECT_GT(skipped1, 0);
}

// The skip rule compares in float, as S is stored: an operand at
// S == (float)tau is skipped and one a float step above it is kept, even
// though (float)0.3 lies above 0.3, where a double compare would keep
// it. kAlwaysRetain is never skipped and tau < 0 skips nothing.
TEST(SkipPlan, OperandAtFloatTauIsSkipped) {
  const double tau = 0.3;
  const float at = static_cast<float>(tau);
  ASSERT_GT(static_cast<double>(at), tau);
  const float above = std::nextafter(at, kAlwaysRetain);
  EXPECT_TRUE(skips(at, tau));
  EXPECT_FALSE(skips(above, tau));
  EXPECT_FALSE(skips(kAlwaysRetain, 1e30));
  EXPECT_FALSE(skips(0.0f, -1.0));

  ConvGeom g;
  g.in_h = 3; g.in_w = 3; g.in_c = 4;
  g.out_c = 1; g.kernel = 1; g.stride = 1; g.pad = 0;  // patch 4
  QModel m;
  m.name = "skip-boundary";
  m.in_h = 3; m.in_w = 3; m.in_c = 4;
  m.input = {1.0f / 255.0f, -128};
  m.layers.emplace_back(make_random_qconv(g, 52));
  LayerSignificance sig;
  sig.out_c = 1;
  sig.patch = 4;
  sig.S = {at, above, kAlwaysRetain, 0.0f};
  EXPECT_EQ(make_skip_mask(m, {sig}, ApproxConfig::uniform(1, tau)).masks[0],
            (std::vector<uint8_t>{1, 0, 0, 1}));
  EXPECT_TRUE(
      make_skip_mask(m, {sig}, ApproxConfig::uniform(1, -1.0)).empty());
}

TEST(ApproxConfig, ToJsonIsATauArray) {
  ApproxConfig cfg;
  cfg.tau = {-1.0, 0.05, 0.001};
  // `ataman_cli --json` exports the chosen config as {"tau": [...]}.
  const Json j = Json::parse(cfg.to_json().dump());
  ASSERT_TRUE(j.is_object());
  EXPECT_EQ(j.as_object().size(), 1u);
  const JsonArray& tau = j.at("tau").as_array();
  ASSERT_EQ(tau.size(), 3u);
  EXPECT_EQ(tau[0].as_number(), -1.0);
  EXPECT_EQ(tau[1].as_number(), 0.05);
  EXPECT_EQ(tau[2].as_number(), 0.001);
  EXPECT_TRUE(cfg.approximates_anything());
  EXPECT_FALSE(ApproxConfig::exact(3).approximates_anything());
}

Dataset random_calib(const QModel& m, int count, uint64_t seed) {
  const ImageShape shape{m.in_h, m.in_w, m.in_c};
  Dataset calib(shape, 10);
  Rng rng(seed);
  std::vector<uint8_t> img(static_cast<size_t>(shape.pixels()));
  for (int i = 0; i < count; ++i) {
    for (auto& p : img) p = static_cast<uint8_t>(rng.next_int(0, 255));
    calib.add(img, 0);
  }
  return calib;
}

// Strided conv (pad 1) -> strided depthwise (pad 0) -> fc: windows that
// skip input rows and columns. in: 9x9x3 u8 image.
QModel make_strided_qmodel(uint64_t seed) {
  QModel m;
  m.name = "strided-test";
  m.in_h = 9;
  m.in_w = 9;
  m.in_c = 3;
  m.input = {1.0f / 255.0f, -128};

  ConvGeom g;
  g.in_h = 9; g.in_w = 9; g.in_c = 3;
  g.out_c = 4; g.kernel = 3; g.stride = 2; g.pad = 1;  // -> 5x5x4
  QConv2D conv = make_random_qconv(g, seed + 1, /*folded_relu=*/true);
  conv.in = m.input;
  refresh_requant(conv);
  conv.act_min = conv.out.zero_point;

  QDepthwiseConv2D dw = make_random_qdw(5, 5, 4, /*kernel=*/3, /*stride=*/2,
                                        /*pad=*/0, seed + 2);  // -> 2x2x4
  dw.in = conv.out;
  refresh_requant(dw);

  QDense fc = make_random_qdense(2 * 2 * 4, 10, seed + 3);
  fc.in = dw.out;
  fc.requant = quantize_multiplier(
      static_cast<double>(fc.in.scale) * fc.w_scale / fc.out.scale);

  m.layers.emplace_back(std::move(conv));
  m.layers.emplace_back(std::move(dw));
  m.layers.emplace_back(std::move(fc));
  return m;
}

// The capture as one image at a time through the reference engine's
// conv-input tap, adding (x - zp) of every patch operand at every output
// position into doubles.
std::vector<ConvInputStats> per_image_ref_stats(const QModel& m,
                                                const Dataset& calib,
                                                int limit) {
  const int n = std::min(limit, calib.size());
  std::vector<ConvInputStats> stats(
      static_cast<size_t>(m.approx_layer_count()));
  for (int k = 0; k < m.approx_layer_count(); ++k)
    stats[static_cast<size_t>(k)].mean_corrected.assign(
        static_cast<size_t>(stats_len(m.layers[static_cast<size_t>(
            m.approx_layer_index(k))])),
        0.0);
  const ConvTap tap = [&](int ordinal, const QLayer& layer,
                          std::span<const int8_t> in) {
    int in_h, in_w, taps_c, kernel, stride, pad, out_h, out_w;
    int32_t zp;
    if (const auto* conv = std::get_if<QConv2D>(&layer)) {
      const ConvGeom& g = conv->geom;
      in_h = g.in_h; in_w = g.in_w; taps_c = g.in_c; kernel = g.kernel;
      stride = g.stride; pad = g.pad; out_h = g.out_h(); out_w = g.out_w();
      zp = conv->in.zero_point;
    } else {
      const auto& dw = std::get<QDepthwiseConv2D>(layer);
      in_h = dw.in_h; in_w = dw.in_w; taps_c = dw.channels;
      kernel = dw.kernel; stride = dw.stride; pad = dw.pad;
      out_h = dw.out_h(); out_w = dw.out_w();
      zp = dw.in.zero_point;
    }
    ConvInputStats& s = stats[static_cast<size_t>(ordinal)];
    for (int oy = 0; oy < out_h; ++oy) {
      for (int ox = 0; ox < out_w; ++ox) {
        int idx = 0;
        for (int ky = 0; ky < kernel; ++ky) {
          for (int kx = 0; kx < kernel; ++kx) {
            const int iy = oy * stride - pad + ky;
            const int ix = ox * stride - pad + kx;
            const bool inside = iy >= 0 && iy < in_h && ix >= 0 && ix < in_w;
            for (int c = 0; c < taps_c; ++c, ++idx) {
              if (!inside) continue;
              s.mean_corrected[static_cast<size_t>(idx)] += static_cast<double>(
                  in[(static_cast<size_t>(iy) * in_w + ix) * taps_c +
                     static_cast<size_t>(c)] -
                  zp);
            }
          }
        }
      }
    }
    s.samples += static_cast<int64_t>(out_h) * out_w;
  };
  const RefEngine engine(&m);
  for (int i = 0; i < n; ++i) (void)engine.run(calib.image(i), nullptr, tap);
  for (ConvInputStats& s : stats)
    for (double& v : s.mean_corrected) v /= static_cast<double>(s.samples);
  return stats;
}

void expect_bitwise_equal(const std::vector<ConvInputStats>& got,
                          const std::vector<ConvInputStats>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t l = 0; l < got.size(); ++l) {
    EXPECT_EQ(got[l].samples, want[l].samples) << "layer " << l;
    ASSERT_EQ(got[l].mean_corrected.size(), want[l].mean_corrected.size())
        << "layer " << l;
    EXPECT_EQ(std::memcmp(got[l].mean_corrected.data(),
                          want[l].mean_corrected.data(),
                          got[l].mean_corrected.size() * sizeof(double)),
              0)
        << "layer " << l;
  }
}

TEST(ActStats, BruteForceAgreementOnFirstConv) {
  // E[a_i] of conv0 can be computed directly from the quantized input
  // images (conv0 reads the image itself).
  const QModel m = make_tiny_qmodel(52);
  const auto* conv0 = std::get_if<QConv2D>(&m.layers[0]);
  ASSERT_NE(conv0, nullptr);

  Dataset calib(ImageShape{12, 12, 3}, 10);
  Rng rng(53);
  for (int i = 0; i < 10; ++i) {
    std::vector<uint8_t> img(12 * 12 * 3);
    for (auto& p : img) p = static_cast<uint8_t>(rng.next_int(0, 255));
    calib.add(img, 0);
  }
  const auto stats = capture_activation_stats(m, calib, 10);

  // Brute force for operand (ky=1,kx=1,c=0): center tap, never padded.
  const ConvGeom& g = conv0->geom;
  const int operand = (1 * g.kernel + 1) * g.in_c + 0;
  double sum = 0.0;
  int64_t count = 0;
  for (int img_i = 0; img_i < 10; ++img_i) {
    const auto img = calib.image(img_i);
    for (int oy = 0; oy < g.out_h(); ++oy) {
      for (int ox = 0; ox < g.out_w(); ++ox) {
        const int iy = oy + 0;  // stride 1, pad 1, ky=1 -> iy = oy
        const int ix = ox + 0;
        const int32_t q =
            static_cast<int32_t>(img[(static_cast<size_t>(iy) * g.in_w + ix) *
                                     g.in_c]) -
            128;  // input quantization: pixel - 128
        sum += q - conv0->in.zero_point;
        ++count;
      }
    }
  }
  EXPECT_NEAR(stats[0].mean_corrected[static_cast<size_t>(operand)],
              sum / static_cast<double>(count), 1e-9);
}

TEST(ActStats, DeterministicAcrossThreadCounts) {
  const QModel m = make_tiny_qmodel(54);
  const Dataset calib = random_calib(m, 16, 55);
  set_num_threads(1);
  const auto serial = capture_activation_stats(m, calib, 16);
  for (const int threads : {4, 7}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    set_num_threads(threads);
    expect_bitwise_equal(capture_activation_stats(m, calib, 16), serial);
  }
  set_num_threads(0);
}

TEST(ActStats, MatchesPerImageRefTapBitwise) {
  // A chain, a DAG, depthwise, and strided windows with and without
  // padding; one image, a count that is no multiple of any batch width,
  // and a limit beyond the dataset.
  const QModel models[] = {make_tiny_qmodel(60), make_residual_qmodel(61),
                           make_tiny_vww_qmodel(62), make_strided_qmodel(63)};
  for (const QModel& m : models) {
    const Dataset calib = random_calib(m, 20, 64);
    for (const int limit : {1, 13, 300}) {
      SCOPED_TRACE(m.name + " limit " + std::to_string(limit));
      expect_bitwise_equal(capture_activation_stats(m, calib, limit),
                           per_image_ref_stats(m, calib, limit));
    }
  }
}

}  // namespace
}  // namespace ataman
