// Reference int8 kernels and engine: float-consistency, skip-mask
// semantics, parameterized shape sweeps, and bitwise parity of the conv
// and depthwise kernels with a brute-force per-operand oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "src/common/error.hpp"
#include "src/nn/engine.hpp"
#include "src/nn/qkernels_ref.hpp"
#include "tests/test_util.hpp"

namespace ataman {
namespace {

using testing::first_column_range_mismatch;
using testing::make_random_input;
using testing::make_random_qconv;
using testing::make_random_qdw;
using testing::make_random_qdense;
using testing::make_random_skip;
using testing::make_tiny_qmodel;

// Float model of the quantized conv for consistency checking.
float float_conv_output(const QConv2D& conv, const std::vector<int8_t>& in,
                        int oy, int ox, int oc) {
  const ConvGeom& g = conv.geom;
  const int patch = g.patch_size();
  const int8_t* w = conv.weights.data() + static_cast<size_t>(oc) * patch;
  const float w_scale = conv.w_scales[static_cast<size_t>(oc)];
  double acc = static_cast<double>(conv.bias[static_cast<size_t>(oc)]) *
               conv.in.scale * w_scale;
  int idx = 0;
  for (int ky = 0; ky < g.kernel; ++ky) {
    const int iy = oy * g.stride - g.pad + ky;
    for (int kx = 0; kx < g.kernel; ++kx) {
      const int ix = ox * g.stride - g.pad + kx;
      const bool inside = iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w;
      for (int c = 0; c < g.in_c; ++c, ++idx) {
        const int32_t x =
            inside ? in[(static_cast<size_t>(iy) * g.in_w + ix) * g.in_c + c]
                   : conv.in.zero_point;
        acc += conv.in.scale * static_cast<double>(x - conv.in.zero_point) *
               w_scale * static_cast<double>(w[idx]);
      }
    }
  }
  return static_cast<float>(acc);
}

struct ConvCase {
  int in_h, in_w, in_c, out_c, kernel, stride, pad;
};

class ConvShapes : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvShapes, QuantizedMatchesFloatWithinOneStep) {
  const ConvCase& c = GetParam();
  ConvGeom g;
  g.in_h = c.in_h; g.in_w = c.in_w; g.in_c = c.in_c;
  g.out_c = c.out_c; g.kernel = c.kernel; g.stride = c.stride; g.pad = c.pad;
  const QConv2D conv = make_random_qconv(g, 1000 + c.kernel * 7 + c.in_c);
  const auto in = make_random_input(
      static_cast<int64_t>(g.in_h) * g.in_w * g.in_c, 55);
  std::vector<int8_t> out(static_cast<size_t>(g.positions()) * g.out_c);
  conv2d_ref(conv, in, out);

  for (int oy = 0; oy < g.out_h(); oy += 2) {
    for (int ox = 0; ox < g.out_w(); ox += 2) {
      for (int oc = 0; oc < g.out_c; oc += 3) {
        const float real = float_conv_output(conv, in, oy, ox, oc);
        const float real_q = std::clamp(
            real / conv.out.scale + conv.out.zero_point,
            static_cast<float>(conv.act_min),
            static_cast<float>(conv.act_max));
        const int8_t got =
            out[(static_cast<size_t>(oy) * g.out_w() + ox) * g.out_c + oc];
        EXPECT_NEAR(static_cast<float>(got), real_q, 1.01f)
            << "at (" << oy << "," << ox << "," << oc << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvShapes,
    ::testing::Values(ConvCase{8, 8, 3, 4, 3, 1, 1},
                      ConvCase{8, 8, 4, 6, 3, 1, 0},
                      ConvCase{10, 10, 2, 3, 5, 1, 2},
                      ConvCase{9, 7, 5, 4, 3, 2, 1},
                      ConvCase{6, 6, 1, 8, 1, 1, 0},
                      ConvCase{12, 12, 8, 2, 5, 2, 2}));

TEST(ConvRef, SkipMaskEqualsZeroedWeights) {
  // The DSE's core numerical assumption: skipping operand i == setting
  // w_i = 0 (the product (a - zp) * 0 vanishes).
  ConvGeom g;
  g.in_h = 7; g.in_w = 7; g.in_c = 4;
  g.out_c = 5; g.kernel = 3; g.stride = 1; g.pad = 1;
  const QConv2D conv = make_random_qconv(g, 77);
  const auto skip = make_random_skip(g, 0.4, 78);
  const auto in = make_random_input(
      static_cast<int64_t>(g.in_h) * g.in_w * g.in_c, 79);

  std::vector<int8_t> masked(static_cast<size_t>(g.positions()) * g.out_c);
  conv2d_ref(conv, in, masked, skip.data());

  QConv2D zeroed = conv;
  for (size_t i = 0; i < zeroed.weights.size(); ++i)
    if (skip[i]) zeroed.weights[i] = 0;
  std::vector<int8_t> out2(masked.size());
  conv2d_ref(zeroed, in, out2);

  EXPECT_EQ(masked, out2);
}

TEST(ConvRef, PaddingTapsContributeZero) {
  // An input equal to the zero point everywhere produces bias-only
  // outputs, identical with and without padding taps.
  ConvGeom g;
  g.in_h = 5; g.in_w = 5; g.in_c = 2;
  g.out_c = 3; g.kernel = 3; g.stride = 1; g.pad = 1;
  QConv2D conv = make_random_qconv(g, 123);
  std::vector<int8_t> in(static_cast<size_t>(g.in_h) * g.in_w * g.in_c,
                         static_cast<int8_t>(conv.in.zero_point));
  std::vector<int8_t> out(static_cast<size_t>(g.positions()) * g.out_c);
  conv2d_ref(conv, in, out);
  // All positions of one channel must be identical (pure bias).
  for (int oc = 0; oc < g.out_c; ++oc) {
    const int8_t first = out[static_cast<size_t>(oc)];
    for (int pos = 1; pos < g.positions(); ++pos)
      ASSERT_EQ(out[static_cast<size_t>(pos) * g.out_c + oc], first);
  }
}

// Brute-force oracles that define the reference kernels' results: every
// output computes every operand one at a time, in weight order, and a
// padding tap reads the input zero point.
int8_t requantize(int32_t acc, const QuantizedMultiplier& m,
                  const QuantParams& out, int32_t act_min, int32_t act_max) {
  const int32_t scaled =
      multiply_by_quantized_multiplier(acc, m) + out.zero_point;
  return static_cast<int8_t>(std::clamp(scaled, act_min, act_max));
}

std::vector<int8_t> brute_force_conv(const QConv2D& layer,
                                     const std::vector<int8_t>& in,
                                     const uint8_t* skip) {
  const ConvGeom& g = layer.geom;
  const int patch = g.patch_size();
  std::vector<int8_t> out(static_cast<size_t>(g.positions()) * g.out_c);
  for (int oy = 0; oy < g.out_h(); ++oy) {
    for (int ox = 0; ox < g.out_w(); ++ox) {
      for (int oc = 0; oc < g.out_c; ++oc) {
        int32_t acc = layer.bias[static_cast<size_t>(oc)];
        int idx = 0;
        for (int ky = 0; ky < g.kernel; ++ky) {
          const int iy = oy * g.stride - g.pad + ky;
          for (int kx = 0; kx < g.kernel; ++kx) {
            const int ix = ox * g.stride - g.pad + kx;
            const bool inside =
                iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w;
            for (int c = 0; c < g.in_c; ++c, ++idx) {
              const size_t op = static_cast<size_t>(oc) * patch + idx;
              if (skip != nullptr && skip[op]) continue;
              const int32_t x =
                  inside ? in[(static_cast<size_t>(iy) * g.in_w + ix) *
                                  g.in_c +
                              c]
                         : layer.in.zero_point;
              acc += (x - layer.in.zero_point) *
                     static_cast<int32_t>(layer.weights[op]);
            }
          }
        }
        out[(static_cast<size_t>(oy) * g.out_w() + ox) * g.out_c + oc] =
            requantize(acc, layer.requant[static_cast<size_t>(oc)],
                       layer.out, layer.act_min, layer.act_max);
      }
    }
  }
  return out;
}

std::vector<int8_t> brute_force_depthwise(const QDepthwiseConv2D& layer,
                                          const std::vector<int8_t>& in,
                                          const uint8_t* skip) {
  const int patch = layer.patch_size(), c_n = layer.channels;
  std::vector<int8_t> out(static_cast<size_t>(layer.positions()) * c_n);
  for (int oy = 0; oy < layer.out_h(); ++oy) {
    for (int ox = 0; ox < layer.out_w(); ++ox) {
      for (int ch = 0; ch < c_n; ++ch) {
        int32_t acc = layer.bias[static_cast<size_t>(ch)];
        int p = 0;
        for (int ky = 0; ky < layer.kernel; ++ky) {
          const int iy = oy * layer.stride - layer.pad + ky;
          for (int kx = 0; kx < layer.kernel; ++kx, ++p) {
            if (skip != nullptr && skip[static_cast<size_t>(ch) * patch + p])
              continue;
            const int ix = ox * layer.stride - layer.pad + kx;
            const bool inside =
                iy >= 0 && iy < layer.in_h && ix >= 0 && ix < layer.in_w;
            const int32_t x =
                inside ? in[(static_cast<size_t>(iy) * layer.in_w + ix) *
                                c_n +
                            ch]
                       : layer.in.zero_point;
            acc += (x - layer.in.zero_point) *
                   static_cast<int32_t>(
                       layer.weights[dw_weight_index(ch, p, c_n)]);
          }
        }
        out[(static_cast<size_t>(oy) * layer.out_w() + ox) * c_n + ch] =
            requantize(acc, layer.requant[static_cast<size_t>(ch)],
                       layer.out, layer.act_min, layer.act_max);
      }
    }
  }
  return out;
}

// Kernels 1, 3 and 5 at strides 1-3 and every pad from 0 to kernel + 1
// (pad >= kernel puts the edge windows wholly in padding), over channel
// counts on both sides of 64, with no mask and with masks of density 0,
// 0.3 and 1. Each case runs the full map and every column range against
// the oracle; the columns outside a range must stay untouched.
constexpr int kParityChannels[] = {1, 3, 17, 63, 64, 65, 130};
constexpr double kParityDensities[] = {-1.0, 0.0, 0.3, 1.0};  // -1: nullptr

template <typename Visit>
void for_each_parity_case(const Visit& visit) {
  uint64_t seed = 4000;
  for (int kernel : {1, 3, 5}) {
    for (int stride = 1; stride <= 3; ++stride) {
      for (int pad = 0; pad <= kernel + 1; ++pad) {
        for (int channels : kParityChannels) {
          for (double density : kParityDensities) {
            visit(kernel, stride, pad, channels, density, ++seed);
          }
        }
      }
    }
  }
}

std::string parity_case_name(int kernel, int stride, int pad, int channels,
                             double density) {
  return "k" + std::to_string(kernel) + " s" + std::to_string(stride) +
         " p" + std::to_string(pad) + " c" + std::to_string(channels) +
         " density " + (density < 0 ? "none" : std::to_string(density));
}

TEST(RefKernelParity, ConvMatchesBruteForceOnEveryWindowAndColumnRange) {
  int cases = 0;
  for_each_parity_case([&](int kernel, int stride, int pad, int channels,
                           double density, uint64_t seed) {
    ConvGeom g;
    g.in_h = 5; g.in_w = 6; g.in_c = channels;
    g.out_c = 3; g.kernel = kernel; g.stride = stride; g.pad = pad;
    const QConv2D conv = make_random_qconv(g, seed, /*folded_relu=*/false);
    const auto in = make_random_input(
        static_cast<int64_t>(g.in_h) * g.in_w * g.in_c, seed + 1);
    const std::vector<uint8_t> mask =
        density < 0 ? std::vector<uint8_t>{}
                    : make_random_skip(g, density, seed + 2);
    const uint8_t* skip = density < 0 ? nullptr : mask.data();
    const std::string name =
        parity_case_name(kernel, stride, pad, channels, density);

    const std::vector<int8_t> want = brute_force_conv(conv, in, skip);
    std::vector<int8_t> got(want.size());
    conv2d_ref(conv, in, got, skip);
    ASSERT_EQ(got, want) << name;
    ASSERT_EQ(first_column_range_mismatch(
                  [&](ColumnRange cols, std::span<int8_t> out) {
                    conv2d_ref(conv, in, out, skip, cols);
                  },
                  want, g.out_w(), g.out_c),
              "")
        << name;
    ++cases;
  });
  EXPECT_EQ(cases, 3 * (3 + 5 + 7) * 7 * 4);
}

TEST(RefKernelParity, DepthwiseMatchesBruteForceOnEveryWindowAndColumnRange) {
  int cases = 0;
  for_each_parity_case([&](int kernel, int stride, int pad, int channels,
                           double density, uint64_t seed) {
    const QDepthwiseConv2D dw =
        make_random_qdw(5, 6, channels, kernel, stride, pad, seed);
    const auto in = make_random_input(
        static_cast<int64_t>(dw.in_h) * dw.in_w * channels, seed + 1);
    std::vector<uint8_t> mask;
    if (density >= 0) {
      Rng rng(seed + 2);
      mask.resize(static_cast<size_t>(dw.weight_count()));
      for (auto& m : mask) m = rng.next_bool(density) ? 1 : 0;
    }
    const uint8_t* skip = density < 0 ? nullptr : mask.data();
    const std::string name =
        parity_case_name(kernel, stride, pad, channels, density);

    const std::vector<int8_t> want = brute_force_depthwise(dw, in, skip);
    std::vector<int8_t> got(want.size());
    depthwise_conv2d_ref(dw, in, got, skip);
    ASSERT_EQ(got, want) << name;
    ASSERT_EQ(first_column_range_mismatch(
                  [&](ColumnRange cols, std::span<int8_t> out) {
                    depthwise_conv2d_ref(dw, in, out, skip, cols);
                  },
                  want, dw.out_w(), channels),
              "")
        << name;
    ++cases;
  });
  EXPECT_EQ(cases, 3 * (3 + 5 + 7) * 7 * 4);
}

TEST(MaxPoolRef, SelectsWindowMaximum) {
  QMaxPool pool;
  pool.in_h = 4; pool.in_w = 4; pool.channels = 1;
  pool.kernel = 2; pool.stride = 2;
  const std::vector<int8_t> in = {1, 5,  3, 4,   //
                                  2, -8, 7, 0,   //
                                  9, 9,  -1, -2, //
                                  0, 3,  -5, 6};
  std::vector<int8_t> out(4);
  maxpool_ref(pool, in, out);
  EXPECT_EQ(out, (std::vector<int8_t>{5, 7, 9, 6}));
}

TEST(MaxPoolRef, OddExtentDropsTail) {
  QMaxPool pool;
  pool.in_h = 5; pool.in_w = 5; pool.channels = 2;
  pool.kernel = 2; pool.stride = 2;
  EXPECT_EQ(pool.out_h(), 2);
  EXPECT_EQ(pool.out_w(), 2);
}

// maxpool_ref (channels innermost) against a copy of its earlier loop,
// which visits each channel's window in turn: kernels 2 and 3, strides 1
// and 2, 1 to 65 channels, over extents the windows tile exactly.
TEST(MaxPoolRef, MatchesPerChannelWindowLoop) {
  const auto per_channel = [](const QMaxPool& layer,
                              std::span<const int8_t> in,
                              std::span<int8_t> out) {
    const int oh = layer.out_h(), ow = layer.out_w(), c = layer.channels;
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        for (int ch = 0; ch < c; ++ch) {
          int8_t best = -128;
          for (int ky = 0; ky < layer.kernel; ++ky) {
            const int iy = oy * layer.stride + ky;
            for (int kx = 0; kx < layer.kernel; ++kx) {
              const int ix = ox * layer.stride + kx;
              best = std::max(
                  best,
                  in[(static_cast<size_t>(iy) * layer.in_w + ix) * c + ch]);
            }
          }
          out[(static_cast<size_t>(oy) * ow + ox) * c + ch] = best;
        }
      }
    }
  };
  int cases = 0;
  for (const int kernel : {2, 3}) {
    for (const int stride : {1, 2}) {
      for (int channels = 1; channels <= 65; ++channels) {
        QMaxPool pool;
        pool.in_h = kernel + stride * (1 + channels % 2);
        pool.in_w = kernel + stride * (2 + channels % 3);
        pool.channels = channels;
        pool.kernel = kernel;
        pool.stride = stride;
        const auto in = make_random_input(
            static_cast<int64_t>(pool.in_h) * pool.in_w * channels,
            static_cast<uint64_t>(1000 + 100 * kernel + 10 * stride + channels));
        const size_t n = static_cast<size_t>(pool.out_h()) * pool.out_w() *
                         static_cast<size_t>(channels);
        std::vector<int8_t> want(n), got(n, 0x5A);
        per_channel(pool, in, want);
        maxpool_ref(pool, in, got);
        ASSERT_EQ(got, want) << "kernel " << kernel << " stride " << stride
                             << " channels " << channels;
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 2 * 2 * 65);
}

TEST(DenseRef, MatchesManualDotProduct) {
  QDense fc = make_random_qdense(6, 3, 200);
  const auto in = make_random_input(6, 201);
  std::vector<int8_t> out(3);
  dense_ref(fc, in, out);
  for (int o = 0; o < 3; ++o) {
    int32_t acc = fc.bias[static_cast<size_t>(o)];
    for (int i = 0; i < 6; ++i)
      acc += (static_cast<int32_t>(in[static_cast<size_t>(i)]) -
              fc.in.zero_point) *
             fc.weights[static_cast<size_t>(o) * 6 + i];
    const int32_t scaled =
        multiply_by_quantized_multiplier(acc, fc.requant) +
        fc.out.zero_point;
    EXPECT_EQ(out[static_cast<size_t>(o)],
              static_cast<int8_t>(std::clamp(scaled, fc.act_min, fc.act_max)));
  }
}

TEST(RefEngine, RunsTinyModelEndToEnd) {
  const QModel m = make_tiny_qmodel(3);
  RefEngine engine(&m);
  const auto img = testing::make_random_image(12 * 12 * 3, 44);
  const std::vector<int8_t> logits = engine.run(img);
  EXPECT_EQ(logits.size(), 10u);
  const int cls = engine.classify(img);
  EXPECT_GE(cls, 0);
  EXPECT_LT(cls, 10);
}

TEST(RefEngine, MaskValidationRejectsWrongShape) {
  const QModel m = make_tiny_qmodel(4);
  RefEngine engine(&m);
  SkipMask bad;
  bad.masks.push_back(std::vector<uint8_t>(7, 0));  // wrong size
  const auto img = testing::make_random_image(12 * 12 * 3, 45);
  EXPECT_THROW(engine.run(img, &bad), Error);
}

TEST(RefEngine, EmptyMaskIsExact) {
  const QModel m = make_tiny_qmodel(5);
  RefEngine engine(&m);
  const SkipMask none = SkipMask::none(m);
  const auto img = testing::make_random_image(12 * 12 * 3, 46);
  EXPECT_EQ(engine.run(img), engine.run(img, &none));
}

TEST(SkipMaskType, ApplySkipMaskEqualsMaskedExecution) {
  const QModel m = make_tiny_qmodel(7);
  SkipMask mask = SkipMask::none(m);
  Rng rng(8);
  for (auto& layer_mask : mask.masks)
    for (auto& v : layer_mask) v = rng.next_bool(0.4) ? 1 : 0;

  const QModel zeroed = apply_skip_mask(m, mask);
  RefEngine masked_engine(&m);
  RefEngine zeroed_engine(&zeroed);
  for (int i = 0; i < 15; ++i) {
    const auto img = testing::make_random_image(12 * 12 * 3, 950 + i);
    ASSERT_EQ(masked_engine.run(img, &mask), zeroed_engine.run(img));
  }
}

TEST(SkipMaskType, CountsAndValidation) {
  const QModel m = make_tiny_qmodel(6);
  SkipMask mask = SkipMask::none(m);
  EXPECT_TRUE(mask.empty());
  EXPECT_EQ(mask.skipped_macs(m), 0);
  // Skip the first 5 operands of conv0/channel0.
  for (int i = 0; i < 5; ++i) mask.masks[0][static_cast<size_t>(i)] = 1;
  EXPECT_FALSE(mask.empty());
  EXPECT_EQ(mask.skipped_static_operands(), 5);
  // conv0 is 12x12 output -> 144 positions.
  EXPECT_EQ(mask.skipped_macs(m), 5 * 144);
}

}  // namespace
}  // namespace ataman
