// Edge-case and robustness tests across kernels and engines: degenerate
// geometries, extreme-value accumulations (int32 overflow headroom), and
// worst-case quantization parameters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>

#include "src/cmsisnn/packed_kernels.hpp"
#include "src/cmsisnn/smlad.hpp"
#include "src/common/error.hpp"
#include "src/common/math_util.hpp"
#include "src/nn/qkernels_ref.hpp"
#include "src/unpack/unpacked_layer.hpp"
#include "tests/test_util.hpp"

namespace ataman {
namespace {

using testing::make_random_input;
using testing::make_random_qconv;

TEST(EdgeCases, ConvOutputCollapsesToSinglePixel) {
  ConvGeom g;
  g.in_h = 3; g.in_w = 3; g.in_c = 2;
  g.out_c = 4; g.kernel = 3; g.stride = 1; g.pad = 0;
  ASSERT_EQ(g.out_h(), 1);
  ASSERT_EQ(g.out_w(), 1);
  const QConv2D conv = make_random_qconv(g, 1);
  const auto in = make_random_input(3 * 3 * 2, 2);
  std::vector<int8_t> a(4), b(4);
  conv2d_ref(conv, in, a);
  UnpackedLayer::build(conv).run(in, b);
  EXPECT_EQ(a, b);
}

TEST(EdgeCases, StrideLargerThanKernel) {
  ConvGeom g;
  g.in_h = 9; g.in_w = 9; g.in_c = 3;
  g.out_c = 2; g.kernel = 2; g.stride = 3; g.pad = 0;
  const QConv2D conv = make_random_qconv(g, 3);
  const auto in = make_random_input(9 * 9 * 3, 4);
  std::vector<int8_t> a(static_cast<size_t>(g.positions()) * 2);
  std::vector<int8_t> b(a.size());
  conv2d_ref(conv, in, a);
  const PackedWeights packed =
      PackedWeights::pack(conv.weights, g.out_c, g.patch_size());
  packed_conv2d(conv, packed, in, b);
  EXPECT_EQ(a, b);
}

TEST(EdgeCases, PaddingLargerThanKernelReach) {
  // pad == kernel-1 on a small input: most taps are padding.
  ConvGeom g;
  g.in_h = 2; g.in_w = 2; g.in_c = 2;
  g.out_c = 3; g.kernel = 3; g.stride = 1; g.pad = 2;
  const QConv2D conv = make_random_qconv(g, 5);
  const auto in = make_random_input(2 * 2 * 2, 6);
  std::vector<int8_t> a(static_cast<size_t>(g.positions()) * 3);
  std::vector<int8_t> b(a.size());
  conv2d_ref(conv, in, a);
  UnpackedLayer::build(conv).run(in, b);
  EXPECT_EQ(a, b);
}

TEST(EdgeCases, WorstCaseAccumulatorStaysInInt32) {
  // Largest supported layer geometry at extreme values: the accumulation
  // must match an int64 model exactly (no int32 overflow). AlexNet's
  // widest patch is 864 (96ch x 3x3); test 1024 with the most extreme
  // operand values.
  const int patch = 1024;
  QDense fc;
  fc.in_dim = patch;
  fc.out_dim = 1;
  fc.in = {0.05f, -128};  // zero point at the extreme
  fc.w_scale = 0.01f;
  fc.weights.assign(static_cast<size_t>(patch), -127);
  fc.bias = {1 << 20};
  fc.out = {0.5f, 0};
  fc.requant = quantize_multiplier(
      static_cast<double>(fc.in.scale) * fc.w_scale / fc.out.scale);

  std::vector<int8_t> in(static_cast<size_t>(patch), 127);
  // int64 ground truth of the accumulation.
  int64_t acc64 = fc.bias[0];
  for (int i = 0; i < patch; ++i)
    acc64 += (127 - (-128)) * static_cast<int64_t>(-127);
  ASSERT_LT(std::abs(acc64), (int64_t{1} << 31))
      << "geometry must fit int32 by design";

  std::vector<int8_t> out(1);
  dense_ref(fc, in, out);
  const int32_t scaled = multiply_by_quantized_multiplier(
                             static_cast<int32_t>(acc64), fc.requant) +
                         fc.out.zero_point;
  EXPECT_EQ(out[0], saturate_int8(scaled));
}

TEST(EdgeCases, SmladExtremesMatchScalarInt64) {
  // Most negative weights/activations through the packed path.
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const int8_t w1 = trial % 2 ? -128 : 127;
    const int8_t w2 = trial % 3 ? -128 : 127;
    const auto a1 = static_cast<int16_t>(rng.next_int(-255, 255));
    const auto a2 = static_cast<int16_t>(rng.next_int(-255, 255));
    const int32_t acc = rng.next_int(-(1 << 28), 1 << 28);
    const int64_t want64 = static_cast<int64_t>(acc) +
                           static_cast<int64_t>(w1) * a1 +
                           static_cast<int64_t>(w2) * a2;
    ASSERT_LT(std::abs(want64), (int64_t{1} << 31));
    EXPECT_EQ(smlad(pack_weight_pair(w2, w1), pack_q15_pair(a2, a1), acc),
              static_cast<int32_t>(want64));
  }
}

TEST(EdgeCases, RequantSaturationClampsToActRange) {
  // Enormous accumulator -> saturated, clamped output.
  ConvGeom g;
  g.in_h = 3; g.in_w = 3; g.in_c = 1;
  g.out_c = 1; g.kernel = 1; g.stride = 1; g.pad = 0;
  QConv2D conv = make_random_qconv(g, 8);
  conv.weights = {127};
  conv.bias = {2'000'000'000};  // dominates everything
  conv.requant = {quantize_multiplier(0.9)};
  conv.act_min = -100;
  conv.act_max = 100;
  const auto in = make_random_input(9, 9);
  std::vector<int8_t> out(9);
  conv2d_ref(conv, in, out);
  for (const int8_t v : out) EXPECT_EQ(v, 100);  // act_max clamp
}

// The epilogue's zero-point add at the int32 limit: a scaled accumulator
// just below INT32_MAX plus out_zp 127 overflows int32. Every kernel
// family must clamp it to act_max instead of wrapping to act_min.
TEST(EdgeCases, EpilogueZeroPointAddAtInt32LimitClampsToActMax) {
  constexpr int32_t kBias = std::numeric_limits<int32_t>::max() - 10;
  const QuantizedMultiplier kMult{std::numeric_limits<int32_t>::max(), 0};
  const auto all_127 = [](const std::vector<int8_t>& v) {
    return std::all_of(v.begin(), v.end(), [](int8_t x) { return x == 127; });
  };
  ConvGeom g;
  g.in_h = 3; g.in_w = 3; g.in_c = 2;
  g.out_c = 2; g.kernel = 1; g.stride = 1; g.pad = 0;
  QConv2D conv = make_random_qconv(g, 14);
  std::fill(conv.weights.begin(), conv.weights.end(), int8_t{0});
  std::fill(conv.bias.begin(), conv.bias.end(), kBias);
  std::fill(conv.requant.begin(), conv.requant.end(), kMult);
  conv.out.zero_point = 127;
  const auto in = make_random_input(18, 15);
  std::vector<int8_t> out(18);
  conv2d_ref(conv, in, out);
  EXPECT_TRUE(all_127(out)) << "conv2d_ref";
  packed_conv2d(conv, PackedWeights::pack(conv.weights, 2, 2), in, out);
  EXPECT_TRUE(all_127(out)) << "packed_conv2d";
  UnpackedLayer::build(conv).run(in, out);
  EXPECT_TRUE(all_127(out)) << "unpacked conv";

  QDepthwiseConv2D dw = testing::make_random_qdw(3, 3, 2, 1, 1, 0, 16);
  std::fill(dw.weights.begin(), dw.weights.end(), int8_t{0});
  std::fill(dw.bias.begin(), dw.bias.end(), kBias);
  std::fill(dw.requant.begin(), dw.requant.end(), kMult);
  dw.out.zero_point = 127;
  depthwise_conv2d_ref(dw, in, out);
  EXPECT_TRUE(all_127(out)) << "depthwise_conv2d_ref";
  packed_depthwise_conv2d(dw, in, out);
  EXPECT_TRUE(all_127(out)) << "packed_depthwise_conv2d";
  UnpackedLayer::build(dw).run(in, out);
  EXPECT_TRUE(all_127(out)) << "unpacked depthwise";

  QDense fc = testing::make_random_qdense(18, 3, 17);
  std::fill(fc.weights.begin(), fc.weights.end(), int8_t{0});
  std::fill(fc.bias.begin(), fc.bias.end(), kBias);
  fc.requant = kMult;
  fc.out.zero_point = 127;
  std::vector<int8_t> logits(3);
  dense_ref(fc, in, logits);
  EXPECT_TRUE(all_127(logits)) << "dense_ref";
  packed_dense(fc, PackedWeights::pack(fc.weights, 3, 18), in, logits);
  EXPECT_TRUE(all_127(logits)) << "packed_dense";
}

// QAdd's sum at the int32 limits: requant_a at shift 30 saturates its
// requantized operand at INT32_MAX or INT32_MIN, requant_b runs at shift
// 0 or 30 too, and every zero point sits at an int8 limit, so an int32
// sum of the two operands and the output zero point overflows. qadd_ref
// must return what the sum clamps to in int64.
TEST(EdgeCases, QAddSumAtInt32LimitsClampsLikeInt64) {
  const QuantizedMultiplier kShift30{std::numeric_limits<int32_t>::max(), 30};
  const QuantizedMultiplier kUnit{1 << 30, 1};
  // Every (a, b) pair of int8 values once: a = i % 256, b = i / 256.
  std::vector<int8_t> in_a(256 * 256), in_b(in_a.size()), out(in_a.size());
  for (size_t i = 0; i < in_a.size(); ++i) {
    in_a[i] = static_cast<int8_t>(static_cast<int>(i % 256) - 128);
    in_b[i] = static_cast<int8_t>(static_cast<int>(i / 256) - 128);
  }
  bool overflowed = false;
  for (const int32_t za : {-128, 127}) {
    for (const int32_t zb : {-128, 127}) {
      for (const int32_t zo : {-128, 127}) {
        for (const QuantizedMultiplier& rb : {kUnit, kShift30}) {
          QAdd add = testing::make_qadd(256, 256, 1, {0.1f, za}, {0.1f, zb},
                                        {0.1f, zo});
          add.requant_a = kShift30;
          add.requant_b = rb;
          qadd_ref(add, in_a, in_b, out);
          for (size_t i = 0; i < out.size(); ++i) {
            const int64_t sum =
                int64_t{multiply_by_quantized_multiplier(in_a[i] - za,
                                                         add.requant_a)} +
                multiply_by_quantized_multiplier(in_b[i] - zb, rb) + zo;
            overflowed |= sum > std::numeric_limits<int32_t>::max() ||
                          sum < std::numeric_limits<int32_t>::min();
            const auto want = static_cast<int8_t>(
                std::clamp<int64_t>(sum, add.act_min, add.act_max));
            ASSERT_EQ(out[i], want)
                << "a " << int{in_a[i]} << " b " << int{in_b[i]} << " za "
                << za << " zb " << zb << " zo " << zo << " rb.shift "
                << rb.shift;
          }
        }
      }
    }
  }
  EXPECT_TRUE(overflowed);
}

TEST(EdgeCases, SingleChannelSingleOperandLayer) {
  // 1x1 conv, 1 input channel: patch of exactly one operand (no pairs,
  // one single) — the smallest possible unpacked program.
  ConvGeom g;
  g.in_h = 4; g.in_w = 4; g.in_c = 1;
  g.out_c = 1; g.kernel = 1; g.stride = 1; g.pad = 0;
  const QConv2D conv = make_random_qconv(g, 10);
  const UnpackedLayer u = UnpackedLayer::build(conv);
  EXPECT_EQ(u.static_pairs(), 0);
  EXPECT_EQ(u.static_singles(), 1);
  const auto in = make_random_input(16, 11);
  std::vector<int8_t> a(16), b(16);
  conv2d_ref(conv, in, a);
  u.run(in, b);
  EXPECT_EQ(a, b);
}

TEST(EdgeCases, MaskAllOperandsOfOneChannelOnly) {
  ConvGeom g;
  g.in_h = 5; g.in_w = 5; g.in_c = 2;
  g.out_c = 3; g.kernel = 3; g.stride = 1; g.pad = 1;
  const QConv2D conv = make_random_qconv(g, 12);
  std::vector<uint8_t> skip(static_cast<size_t>(g.weight_count()), 0);
  // Kill channel 1 entirely.
  for (int i = 0; i < g.patch_size(); ++i)
    skip[static_cast<size_t>(g.patch_size() + i)] = 1;
  const auto in = make_random_input(5 * 5 * 2, 13);
  std::vector<int8_t> a(static_cast<size_t>(g.positions()) * 3);
  std::vector<int8_t> b(a.size());
  conv2d_ref(conv, in, a, skip.data());
  UnpackedLayer::build(conv, skip.data()).run(in, b);
  EXPECT_EQ(a, b);
  // Channels 0 and 2 must be unaffected vs the fully exact run.
  std::vector<int8_t> exact(a.size());
  conv2d_ref(conv, in, exact);
  for (int pos = 0; pos < g.positions(); ++pos) {
    EXPECT_EQ(a[static_cast<size_t>(pos) * 3 + 0],
              exact[static_cast<size_t>(pos) * 3 + 0]);
    EXPECT_EQ(a[static_cast<size_t>(pos) * 3 + 2],
              exact[static_cast<size_t>(pos) * 3 + 2]);
  }
}

}  // namespace
}  // namespace ataman
