// Code unpacking of conv and depthwise layers: bit-exactness (exact and
// skipped, batched, column ranges), rung programs against one-rung
// programs per rung, offline re-pairing, static instruction counts,
// flash/cycle monotonicity.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/cmsisnn/smlad.hpp"
#include "src/common/error.hpp"
#include "src/mcu/cost_model.hpp"
#include "src/mcu/memory_model.hpp"
#include "src/nn/engine.hpp"
#include "src/nn/qkernels_ref.hpp"
#include "src/sig/significance.hpp"
#include "src/unpack/unpacked_engine.hpp"
#include "src/unpack/unpacked_layer.hpp"
#include "tests/test_util.hpp"

namespace ataman {
namespace {

using testing::make_random_input;
using testing::make_random_qconv;
using testing::make_random_qdw;
using testing::make_tiny_qmodel;

// One approximable layer: conv (out_c filters over in_c channels) or
// depthwise (in_c channels; out_c unused).
struct UnpackCase {
  OpKind kind;
  int in_h, in_w, in_c, out_c, kernel, stride, pad;
  double skip_density;
};

QLayer make_case_layer(const UnpackCase& c) {
  if (c.kind == OpKind::kDepthwise)
    return make_random_qdw(c.in_h, c.in_w, c.in_c, c.kernel, c.stride, c.pad,
                           17 * c.in_c + c.kernel);
  ConvGeom g;
  g.in_h = c.in_h; g.in_w = c.in_w; g.in_c = c.in_c;
  g.out_c = c.out_c; g.kernel = c.kernel; g.stride = c.stride; g.pad = c.pad;
  return make_random_qconv(g, 17 * c.out_c + c.kernel);
}

class UnpackShapes : public ::testing::TestWithParam<UnpackCase> {};

TEST_P(UnpackShapes, BitExactVsMaskedReference) {
  const UnpackCase& c = GetParam();
  const QLayer layer = make_case_layer(c);
  const OpDescriptor d = describe_layer(layer);
  Rng skip_rng(600);
  std::vector<uint8_t> skip(
      static_cast<size_t>(d.skippable_operand_count()));
  for (auto& s : skip) s = skip_rng.next_bool(c.skip_density) ? 1 : 0;
  const uint8_t* skip_ptr = c.skip_density > 0.0 ? skip.data() : nullptr;
  const UnpackedLayer u = UnpackedLayer::build(layer, skip_ptr);

  // Five images: one full lane block and a ragged tail of one.
  constexpr int kBatch = 5;
  const size_t in_elems = static_cast<size_t>(d.in_elems);
  const size_t out_elems = static_cast<size_t>(d.out_elems);
  const auto in = make_random_input(static_cast<int64_t>(in_elems) * kBatch,
                                    601);
  std::vector<int8_t> want(out_elems * kBatch);
  for (int b = 0; b < kBatch; ++b) {
    run_layer_ref(layer, std::span(in).subspan(b * in_elems, in_elems), {},
                  std::span(want).subspan(b * out_elems, out_elems),
                  skip_ptr);
  }

  // Every column range, the rest pre-filled with a sentinel: blocks of
  // kPosBlock columns start at every begin, so every ragged tail runs.
  const int ow = u.geom.out_w();
  const int out_ch = static_cast<int>(d.out_elems / d.positions);
  for (const int batch : {1, kBatch}) {
    const auto in_b = std::span(in).first(batch * in_elems);
    const auto want_b = std::span(want).first(batch * out_elems);
    std::vector<int8_t> got(want_b.size());
    u.run(in_b, got, batch);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want_b.begin()))
        << "batch " << batch;
    EXPECT_EQ(testing::first_column_range_mismatch(
                  [&](ColumnRange range, std::span<int8_t> out) {
                    u.run(in_b, out, batch, {}, range);
                  },
                  want_b, ow, out_ch),
              "")
        << "batch " << batch;
  }
}

constexpr OpKind kConv = OpKind::kConv;
constexpr OpKind kDw = OpKind::kDepthwise;

INSTANTIATE_TEST_SUITE_P(
    ShapesAndDensities, UnpackShapes,
    ::testing::Values(UnpackCase{kConv, 8, 8, 3, 4, 3, 1, 1, 0.0},
                      UnpackCase{kConv, 8, 8, 3, 4, 3, 1, 1, 0.3},
                      UnpackCase{kConv, 8, 8, 4, 6, 3, 1, 1, 0.5},
                      UnpackCase{kConv, 10, 10, 2, 3, 5, 1, 2, 0.7},
                      UnpackCase{kConv, 9, 7, 5, 4, 3, 2, 0, 0.25},
                      UnpackCase{kConv, 6, 6, 1, 8, 1, 1, 0, 0.9},
                      UnpackCase{kConv, 6, 6, 2, 2, 3, 1, 1, 1.0},
                      // out_w 19: two full position blocks and a tail.
                      UnpackCase{kConv, 5, 19, 3, 4, 3, 1, 1, 0.4},
                      // Stride 3 (three phase planes), and out_w 16 (no
                      // ragged block).
                      UnpackCase{kConv, 11, 11, 3, 4, 3, 3, 1, 0.3},
                      UnpackCase{kConv, 9, 20, 2, 3, 5, 3, 2, 0.5},
                      UnpackCase{kConv, 4, 16, 3, 4, 3, 1, 1, 0.2},
                      UnpackCase{kDw, 8, 8, 4, 0, 3, 1, 1, 0.0},
                      UnpackCase{kDw, 9, 9, 5, 0, 3, 2, 0, 0.3},
                      UnpackCase{kDw, 10, 10, 3, 0, 5, 1, 2, 0.5},
                      UnpackCase{kDw, 11, 9, 6, 0, 5, 2, 2, 0.7},
                      UnpackCase{kDw, 7, 7, 5, 0, 3, 1, 2, 0.45},
                      UnpackCase{kDw, 6, 6, 8, 0, 1, 1, 0, 0.25},
                      UnpackCase{kDw, 7, 7, 3, 0, 1, 2, 0, 0.9},
                      UnpackCase{kDw, 8, 6, 2, 0, 3, 2, 1, 1.0},
                      UnpackCase{kDw, 5, 18, 3, 0, 3, 1, 1, 0.35},
                      UnpackCase{kDw, 10, 13, 4, 0, 3, 3, 0, 0.4},
                      UnpackCase{kDw, 9, 25, 3, 0, 5, 3, 2, 0.6},
                      UnpackCase{kDw, 5, 16, 3, 0, 3, 1, 1, 0.2}));

// A rung program over rung taus {0.1, 0.3, 0.55, 0.8}: every subset of
// its five rungs, emitted in one pass, must write per emitted rung the
// bits of a one-rung program under that rung's mask and leave the other
// outputs untouched. S is random in [0, 1) with some kAlwaysRetain
// operands and every seventh on a rung's (float)tau; channel 0 is skipped
// whole at the top rung.
TEST(UnpackedLayer, RungProgramMatchesOneRungProgramPerRung) {
  const std::vector<double> taus = {0.1, 0.3, 0.55, 0.8};
  const int rungs = static_cast<int>(taus.size()) + 1;
  const UnpackCase cases[] = {
      {kConv, 7, 9, 3, 5, 3, 1, 1, 0},  // stride 1
      {kConv, 9, 9, 2, 4, 3, 2, 1, 0},  // stride 2
      {kConv, 8, 8, 4, 6, 5, 1, 2, 0},  // LeNet-like 5x5, pad 2
      {kDw, 7, 10, 6, 0, 3, 1, 1, 0},
      {kDw, 9, 9, 5, 0, 5, 2, 2, 0},
  };
  constexpr int8_t kSentinel = 0x5A;
  constexpr int kBatch = 5;
  for (const UnpackCase& c : cases) {
    const QLayer layer = make_case_layer(c);
    const OpDescriptor d = describe_layer(layer);
    LayerSignificance sig;
    sig.out_c = d.channels;
    sig.patch = d.patch;
    Rng rng(700 + c.kernel * 10 + c.stride);
    for (int64_t op = 0; op < d.skippable_operand_count(); ++op) {
      float v = rng.next_bool(0.1) ? kAlwaysRetain : rng.next_float();
      if (op < d.patch) v = 0.8f * rng.next_float();  // channel 0
      // On a rung's boundary: (float)tau lies above each tau here, so a
      // band compare in double would retain what the mask skips.
      if (op % 7 == 3) v = static_cast<float>(taus[(op / 7) % taus.size()]);
      sig.S.push_back(v);
    }
    const UnpackedLayer u = UnpackedLayer::build_rungs(layer, sig, taus);
    ASSERT_EQ(u.rung_count, rungs);

    // One-rung programs under each rung's mask give the expected bits.
    const size_t out_elems = static_cast<size_t>(d.out_elems) * kBatch;
    const auto in = make_random_input(d.in_elems * kBatch, 701);
    std::vector<std::vector<int8_t>> want(static_cast<size_t>(rungs),
                                          std::vector<int8_t>(out_elems));
    for (int r = 0; r < rungs; ++r) {
      std::vector<uint8_t> skip(sig.S.size(), 0);
      for (size_t op = 0; op < skip.size(); ++op) {
        skip[op] = r > 0 && sig.S[op] <= static_cast<float>(
                                              taus[static_cast<size_t>(r - 1)]);
      }
      UnpackedLayer::build(layer, skip.data())
          .run(in, want[static_cast<size_t>(r)], kBatch);
    }
    // Not vacuous: some band above rung 0 is odd (it ends in a pair whose
    // two operands are one), and channel 0's top band is empty.
    bool odd_band = false;
    for (const ChannelProgram& ch : u.channels) {
      for (int r = 1; r < rungs; ++r) {
        const uint32_t end = ch.band_end[static_cast<size_t>(r)];
        const uint32_t begin =
            r + 1 < rungs ? ch.band_end[static_cast<size_t>(r + 1)] : 0;
        odd_band |= end > begin && ch.pairs[end - 1].operand_a ==
                                       ch.pairs[end - 1].operand_b;
      }
    }
    EXPECT_TRUE(odd_band);
    EXPECT_EQ(u.channels[0].band_end[static_cast<size_t>(rungs - 1)], 0u);

    // One image (its blocks fill the lanes) and five (a lane block and a
    // ragged tail).
    for (const int batch : {1, kBatch}) {
      const auto in_b = std::span(in).first(
          static_cast<size_t>(d.in_elems) * batch);
      const size_t n = static_cast<size_t>(d.out_elems) * batch;
      for (int subset = 0; subset < (1 << rungs); ++subset) {
        std::vector<std::vector<int8_t>> got(
            static_cast<size_t>(rungs), std::vector<int8_t>(n, kSentinel));
        std::vector<std::span<int8_t>> outs(static_cast<size_t>(rungs));
        for (int r = 0; r < rungs; ++r) {
          if (subset & (1 << r))
            outs[static_cast<size_t>(r)] = got[static_cast<size_t>(r)];
        }
        u.run_rungs(in_b, outs, batch);
        for (int r = 0; r < rungs; ++r) {
          const auto& g = got[static_cast<size_t>(r)];
          if (subset & (1 << r)) {
            EXPECT_TRUE(std::equal(g.begin(), g.end(),
                                   want[static_cast<size_t>(r)].begin()))
                << "kind " << static_cast<int>(c.kind) << " k" << c.kernel
                << " s" << c.stride << " batch " << batch << " subset "
                << subset << " rung " << r;
          } else {
            EXPECT_TRUE(std::all_of(g.begin(), g.end(),
                                    [](int8_t v) { return v == kSentinel; }))
                << "subset " << subset << " wrote rung " << r;
          }
        }
      }
    }
  }
}

TEST(UnpackedLayer, ExactBuildCountsEveryWeight) {
  ConvGeom g;
  g.in_h = 6; g.in_w = 6; g.in_c = 3;
  g.out_c = 4; g.kernel = 3; g.stride = 1; g.pad = 1;  // patch 27 (odd)
  const QConv2D conv = make_random_qconv(g, 5);
  const UnpackedLayer u = UnpackedLayer::build(conv);
  EXPECT_EQ(u.static_pairs(), 4 * 13);
  EXPECT_EQ(u.static_singles(), 4);
  EXPECT_EQ(u.retained_macs(), g.macs());
}

TEST(UnpackedLayer, RepairingAfterSkipping) {
  // Skip 3 of 27 operands in channel 0: retained 24 -> 12 pairs, 0 single.
  ConvGeom g;
  g.in_h = 4; g.in_w = 4; g.in_c = 3;
  g.out_c = 2; g.kernel = 3; g.stride = 1; g.pad = 1;
  const QConv2D conv = make_random_qconv(g, 6);
  std::vector<uint8_t> skip(static_cast<size_t>(g.weight_count()), 0);
  skip[2] = skip[10] = skip[20] = 1;  // channel 0
  const UnpackedLayer u = UnpackedLayer::build(conv, skip.data());
  EXPECT_EQ(u.channels[0].pairs.size(), 12u);
  EXPECT_FALSE(u.channels[0].has_single);
  EXPECT_EQ(u.channels[1].pairs.size(), 13u);
  EXPECT_TRUE(u.channels[1].has_single);
  // Skipped operand indices never appear in the program.
  for (const MacPairOp& op : u.channels[0].pairs) {
    EXPECT_NE(op.operand_a, 2u);
    EXPECT_NE(op.operand_b, 10u);
    EXPECT_NE(op.operand_a, 20u);
  }
}

TEST(UnpackedLayer, PackedConstantsMatchWeights) {
  ConvGeom g;
  g.in_h = 3; g.in_w = 3; g.in_c = 2;
  g.out_c = 1; g.kernel = 1; g.stride = 1; g.pad = 0;  // patch 2
  QConv2D conv = make_random_qconv(g, 7);
  conv.weights = {64, 20};  // the paper's example pair
  const UnpackedLayer u = UnpackedLayer::build(conv);
  ASSERT_EQ(u.channels[0].pairs.size(), 1u);
  // low lane = first operand (20 is hi? no: lo=w[0]=64? check convention)
  // pack_weight_pair(hi=w[1]=20, lo=w[0]=64).
  EXPECT_EQ(u.channels[0].pairs[0].weight_const,
            pack_weight_pair(20, 64));
}

TEST(UnpackedLayer, DepthwiseOperandsAreBakedExpansionOffsets) {
  // 3 channels, 3x3 taps: tap t of channel ch reads expansion offset
  // t * 3 + ch, which is also its [k][k][c] weight index.
  const QDepthwiseConv2D dw = make_random_qdw(5, 5, 3, 3, 1, 1, 21);
  const UnpackedLayer u = UnpackedLayer::build(dw);
  EXPECT_EQ(u.geom, dw.expansion_geom());
  const ChannelProgram& ch2 = u.channels[2];
  ASSERT_EQ(ch2.pairs.size(), 4u);
  EXPECT_EQ(ch2.pairs[0].operand_a, 2u);
  EXPECT_EQ(ch2.pairs[0].operand_b, 5u);
  EXPECT_EQ(ch2.pairs[0].weight_const,
            pack_weight_pair(dw.weights[5], dw.weights[2]));
  ASSERT_TRUE(ch2.has_single);
  EXPECT_EQ(ch2.single.operand, 26u);
  EXPECT_EQ(ch2.single.weight, dw.weights[26]);
}

TEST(UnpackedLayer, BuildRejectsLayersThatDoNotUnpack) {
  QMaxPool pool;
  pool.in_h = pool.in_w = 4;
  pool.channels = 2;
  EXPECT_THROW(UnpackedLayer::build(pool), Error);
}

TEST(UnpackedLayer, FullSkipYieldsBiasOnly) {
  ConvGeom g;
  g.in_h = 4; g.in_w = 4; g.in_c = 2;
  g.out_c = 3; g.kernel = 3; g.stride = 1; g.pad = 1;
  const QConv2D conv = make_random_qconv(g, 8);
  std::vector<uint8_t> skip(static_cast<size_t>(g.weight_count()), 1);
  const UnpackedLayer u = UnpackedLayer::build(conv, skip.data());
  EXPECT_EQ(u.static_pairs(), 0);
  EXPECT_EQ(u.static_singles(), 0);
  EXPECT_EQ(u.retained_macs(), 0);

  const auto in = make_random_input(4 * 4 * 2, 9);
  std::vector<int8_t> out(static_cast<size_t>(g.positions()) * g.out_c);
  u.run(in, out);
  // Every position of a channel outputs requant(bias).
  for (int oc = 0; oc < g.out_c; ++oc)
    for (int pos = 1; pos < g.positions(); ++pos)
      EXPECT_EQ(out[static_cast<size_t>(pos) * g.out_c + oc],
                out[static_cast<size_t>(oc)]);
}

TEST(UnpackedEngine, ExactUnpackingBitExactVsReference) {
  const QModel m = make_tiny_qmodel(12);
  RefEngine ref(&m);
  UnpackedEngine up(&m);
  for (int i = 0; i < 30; ++i) {
    const auto img = testing::make_random_image(12 * 12 * 3, 700 + i);
    ASSERT_EQ(ref.run(img), up.run(img)) << "image " << i;
  }
}

TEST(UnpackedEngine, SkippedEngineMatchesMaskedReference) {
  const QModel m = make_tiny_qmodel(13);
  SkipMask mask = SkipMask::none(m);
  Rng rng(14);
  for (auto& layer_mask : mask.masks)
    for (auto& v : layer_mask) v = rng.next_bool(0.35) ? 1 : 0;

  RefEngine ref(&m);
  UnpackedEngine up(&m, &mask);
  for (int i = 0; i < 30; ++i) {
    const auto img = testing::make_random_image(12 * 12 * 3, 800 + i);
    ASSERT_EQ(ref.run(img, &mask), up.run(img)) << "image " << i;
  }
}

TEST(UnpackedEngine, SkippingReducesCyclesAndMacs) {
  const QModel m = make_tiny_qmodel(15);
  UnpackedEngine exact(&m);
  SkipMask mask = SkipMask::none(m);
  Rng rng(16);
  for (auto& layer_mask : mask.masks)
    for (auto& v : layer_mask) v = rng.next_bool(0.5) ? 1 : 0;
  UnpackedEngine skipped(&m, &mask);

  EXPECT_LT(skipped.total_cycles(), exact.total_cycles());
  EXPECT_LT(skipped.mac_ops(), exact.mac_ops());
  EXPECT_EQ(exact.mac_ops(), m.mac_count());
}

TEST(UnpackedEngine, FlashShrinksWithSkipping) {
  const QModel m = make_tiny_qmodel(17);
  UnpackedEngine exact(&m);
  SkipMask mask = SkipMask::none(m);
  Rng rng(18);
  for (auto& layer_mask : mask.masks)
    for (auto& v : layer_mask) v = rng.next_bool(0.6) ? 1 : 0;
  UnpackedEngine skipped(&m, &mask);
  EXPECT_LT(skipped.flash().unpacked_code_bytes,
            exact.flash().unpacked_code_bytes);
  EXPECT_LT(skipped.flash().total_bytes, exact.flash().total_bytes);
}

TEST(CostModel, UnpackedCyclesMonotoneInRetainedOps) {
  ConvGeom g;
  g.in_h = 8; g.in_w = 8; g.in_c = 4;
  g.out_c = 4; g.kernel = 3; g.stride = 1; g.pad = 1;
  const QConv2D conv = make_random_qconv(g, 19);
  const auto cycles = [&](int64_t pairs) {
    double sum = 0.0;
    return static_cast<int64_t>(add_step_cycles(
        sum, conv, PriceList::kUnpacked, pairs, 0));
  };
  const int64_t full = cycles(72);
  const int64_t half = cycles(36);
  const int64_t none = cycles(0);
  EXPECT_GT(full, half);
  EXPECT_GT(half, none);
  EXPECT_GT(none, 0);  // epilogues remain
}

}  // namespace
}  // namespace ataman
