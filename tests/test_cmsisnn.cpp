// CMSIS-NN-like substrate: SMLAD instruction semantics (including the
// paper's own packing example), packed kernels bit-exact vs. reference,
// full-engine equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "src/cmsisnn/cmsis_engine.hpp"
#include "src/cmsisnn/packed_kernels.hpp"
#include "src/core/exec_plan.hpp"
#include "src/data/synth_cifar.hpp"
#include "src/cmsisnn/smlad.hpp"
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
using testing::make_random_qdense;
using testing::make_random_qdw;
using testing::make_tiny_qmodel;

TEST(Smlad, PaperPackingExample) {
  // §II-B item 3: w1=64, w2=20 packs to 64*2^16 + 20 = 4194324.
  EXPECT_EQ(pack_weight_pair(64, 20), 4194324u);
  EXPECT_EQ(lane_hi(4194324u), 64);
  EXPECT_EQ(lane_lo(4194324u), 20);
}

TEST(Smlad, NegativeWeightsSignExtend) {
  const uint32_t packed = pack_weight_pair(-3, -128);
  EXPECT_EQ(lane_hi(packed), -3);
  EXPECT_EQ(lane_lo(packed), -128);
}

TEST(Smlad, DualMacMatchesTwoMultiplies) {
  Rng rng(1);
  for (int trial = 0; trial < 500; ++trial) {
    const auto w1 = static_cast<int8_t>(rng.next_int(-128, 127));
    const auto w2 = static_cast<int8_t>(rng.next_int(-128, 127));
    const auto a1 = static_cast<int16_t>(rng.next_int(-300, 300));
    const auto a2 = static_cast<int16_t>(rng.next_int(-300, 300));
    const int32_t acc = rng.next_int(-100000, 100000);
    const int32_t got =
        smlad(pack_weight_pair(w2, w1), pack_q15_pair(a2, a1), acc);
    const int32_t want = acc + static_cast<int32_t>(w1) * a1 +
                         static_cast<int32_t>(w2) * a2;
    ASSERT_EQ(got, want);
  }
}

TEST(Smlad, SmlabbUsesBottomLanesOnly) {
  const uint32_t x = pack_q15_pair(999, 7);
  const uint32_t y = pack_q15_pair(-888, -3);
  EXPECT_EQ(smlabb(x, y, 10), 10 + 7 * -3);
}

TEST(Smlad, Sxtb16ExtractsBytes0And2) {
  // word = [b3 b2 b1 b0]; SXTB16 -> lanes (b2, b0) sign-extended.
  const uint32_t word = 0x80FF7F01u;  // b3=0x80 b2=0xFF b1=0x7F b0=0x01
  const uint32_t lanes = sxtb16(word);
  EXPECT_EQ(lane_lo(lanes), 1);
  EXPECT_EQ(lane_hi(lanes), -1);
}

// The 8-lane block step against scalar smlad on every lane: the SSE2
// path (smlad8 on x86) and the portable definition (smlad8_scalar) alike.
void expect_block_step_matches_smlad(uint32_t w, const int16_t* a,
                                     const int16_t* b, int32_t acc0) {
  std::array<int32_t, kPosBlock> want{}, scalar{}, simd{};
  for (int p = 0; p < kPosBlock; ++p)
    want[p] = smlad(w, pack_q15_pair(b[p], a[p]), acc0);
  scalar.fill(acc0);
  smlad8_scalar(w, a, b, scalar.data());
  Acc8 acc = acc8_splat(acc0);
  smlad8(w, a, b, acc);
  acc8_store(acc, simd.data());
  EXPECT_EQ(scalar, want) << "w=" << w << " acc0=" << acc0;
  EXPECT_EQ(simd, want) << "w=" << w << " acc0=" << acc0;
}

TEST(Smlad, BlockStepMatchesScalarOnRandomOperands) {
  Rng rng(3);
  std::array<int16_t, kPosBlock> a{}, b{};
  for (int trial = 0; trial < 2000; ++trial) {
    const auto hi = static_cast<int8_t>(rng.next_int(-128, 127));
    const auto lo = static_cast<int8_t>(rng.next_int(-128, 127));
    const uint32_t w = pack_weight_pair(hi, lo);
    for (int p = 0; p < kPosBlock; ++p) {
      a[p] = static_cast<int16_t>(rng.next_int(-32768, 32767));
      b[p] = static_cast<int16_t>(rng.next_int(-32768, 32767));
    }
    expect_block_step_matches_smlad(w, a.data(), b.data(),
                                    static_cast<int32_t>(rng.next_u64()));
  }
}

TEST(Smlad, BlockStepMatchesScalarOnExtremeOperands) {
  const auto& extremes = testing::kQ15Extremes;
  std::array<int16_t, kPosBlock> a{}, b{};
  for (const int8_t hi : testing::kWeightExtremes) {
    for (const int8_t lo : testing::kWeightExtremes) {
      for (const int32_t acc0 : testing::kAccExtremes) {
        // -32768 in both lanes of every position, then mixed extremes.
        a.fill(-32768);
        b.fill(-32768);
        expect_block_step_matches_smlad(pack_weight_pair(hi, lo), a.data(),
                                        b.data(), acc0);
        for (int p = 0; p < kPosBlock; ++p) {
          a[p] = extremes[p % 6];
          b[p] = extremes[(p + 3) % 6];
        }
        expect_block_step_matches_smlad(pack_weight_pair(hi, lo), a.data(),
                                        b.data(), acc0);
      }
    }
  }
  // Full-range q15 weights: the one pair sum that overflows int32
  // (2 * 2^30) wraps in both.
  a.fill(-32768);
  b.fill(-32768);
  expect_block_step_matches_smlad(pack_q15_pair(-32768, -32768), a.data(),
                                  b.data(), 5);
}

// requant8 against its definition, requant_clamp, on every lane of the
// requant operand table: the SSE2 branch on x86, the scalar loop on the
// portable build and for shifts above 0.
TEST(Requant8, MatchesScalarDefinitionOnOperandTable) {
  for (const testing::RequantOperands& row :
       testing::requant_operand_table(8)) {
    const size_t n = row.accs.size();
    for (const auto& [act_min, act_max] : testing::kRequantActRanges) {
      for (int32_t zp = -128; zp <= 127; ++zp) {
        // Rotating the accumulators by zp puts each one in every lane.
        for (size_t g = 0; g < n; g += kPosBlock) {
          std::array<int32_t, kPosBlock> lanes{};
          std::array<int8_t, kPosBlock> want{}, got{};
          for (size_t p = 0; p < kPosBlock; ++p) {
            lanes[p] = row.accs[(g + p + static_cast<size_t>(zp + 128)) % n];
            want[p] = requant_clamp(lanes[p], row.qm, zp, act_min, act_max);
          }
          requant8(acc8_load(lanes.data()), row.qm, zp, act_min, act_max,
                   got.data());
          ASSERT_EQ(got, want)
              << "mult=" << row.qm.mult << " shift=" << row.qm.shift
              << " zp=" << zp << " act=[" << act_min << ", " << act_max
              << "] accs from " << lanes[0];
        }
      }
    }
  }
}

TEST(Smlad, DotMatchesScalarOnEveryTailLength) {
  Rng rng(4);
  for (size_t pairs = 0; pairs <= 33; ++pairs) {
    std::vector<uint32_t> w(pairs);
    std::vector<int16_t> x(2 * pairs);
    for (int trial = 0; trial < 20; ++trial) {
      const bool extreme = trial == 0;
      for (uint32_t& v : w) {
        v = extreme ? pack_weight_pair(-128, -128)
                    : pack_weight_pair(
                          static_cast<int8_t>(rng.next_int(-128, 127)),
                          static_cast<int8_t>(rng.next_int(-128, 127)));
      }
      for (int16_t& v : x) {
        v = extreme ? int16_t{-32768}
                    : static_cast<int16_t>(rng.next_int(-32768, 32767));
      }
      const auto acc0 = static_cast<int32_t>(rng.next_u64());
      int32_t want = acc0;
      for (size_t i = 0; i < pairs; ++i)
        want = smlad(w[i], pack_q15_pair(x[2 * i + 1], x[2 * i]), want);
      ASSERT_EQ(smlad_dot_scalar(w.data(), x.data(), pairs, acc0), want)
          << "pairs=" << pairs;
      ASSERT_EQ(smlad_dot(w.data(), x.data(), pairs, acc0), want)
          << "pairs=" << pairs;
    }
  }
}

TEST(PackedWeights, PairAndSingleLayout) {
  // patch=5 (odd): 2 pairs + single per channel.
  const std::vector<int8_t> w = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const PackedWeights p = PackedWeights::pack(w, /*out_c=*/2, /*patch=*/5);
  EXPECT_EQ(p.pairs_per_chan, 2);
  EXPECT_TRUE(p.has_single);
  EXPECT_EQ(p.pair_constants.size(), 4u);
  EXPECT_EQ(lane_lo(p.pair_constants[0]), 1);
  EXPECT_EQ(lane_hi(p.pair_constants[0]), 2);
  EXPECT_EQ(p.single_weights[0], 5);
  EXPECT_EQ(p.single_weights[1], 10);
}

struct ConvCase {
  int in_h, in_w, in_c, out_c, kernel, stride, pad;
};

class PackedConvShapes : public ::testing::TestWithParam<ConvCase> {};

TEST_P(PackedConvShapes, BitExactVsReference) {
  const ConvCase& c = GetParam();
  ConvGeom g;
  g.in_h = c.in_h; g.in_w = c.in_w; g.in_c = c.in_c;
  g.out_c = c.out_c; g.kernel = c.kernel; g.stride = c.stride; g.pad = c.pad;
  const QConv2D conv = make_random_qconv(g, 31 * c.kernel + c.out_c);
  const PackedWeights packed =
      PackedWeights::pack(conv.weights, g.out_c, g.patch_size());

  // Five images: one full lane block of kBatchLanes and a ragged tail.
  constexpr int kBatch = 5;
  const size_t in_elems = static_cast<size_t>(g.in_h) * g.in_w * g.in_c;
  const size_t out_elems = static_cast<size_t>(g.positions()) * g.out_c;
  const auto in = make_random_input(
      static_cast<int64_t>(in_elems) * kBatch, 90);
  std::vector<int8_t> want(out_elems * kBatch);
  for (size_t b = 0; b < kBatch; ++b) {
    conv2d_ref(conv, std::span(in).subspan(b * in_elems, in_elems),
               std::span(want).subspan(b * out_elems, out_elems));
  }

  for (const int batch : {1, kBatch}) {
    const auto in_b = std::span(in).first(batch * in_elems);
    const auto want_b = std::span(want).first(batch * out_elems);
    std::vector<int8_t> got(want_b.size());
    packed_conv2d(conv, packed, in_b, got, batch);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want_b.begin()))
        << "batch " << batch;
    EXPECT_EQ(testing::first_column_range_mismatch(
                  [&](ColumnRange range, std::span<int8_t> out) {
                    packed_conv2d(conv, packed, in_b, out, batch, {}, range);
                  },
                  want_b, g.out_w(), g.out_c),
              "")
        << "batch " << batch;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PackedConvShapes,
    ::testing::Values(ConvCase{8, 8, 3, 4, 3, 1, 1},   // odd patch (27)
                      ConvCase{8, 8, 4, 6, 3, 1, 1},   // even patch (36)
                      ConvCase{10, 10, 2, 3, 5, 1, 2}, // k=5, even patch
                      ConvCase{10, 10, 3, 2, 5, 1, 2}, // k=5, odd patch (75)
                      ConvCase{9, 7, 5, 4, 3, 2, 0},   // stride 2, no pad
                      ConvCase{6, 6, 1, 8, 1, 1, 0},   // 1x1 conv
                      ConvCase{12, 12, 8, 3, 5, 2, 2},
                      // out_w 17: two full position blocks and a tail.
                      ConvCase{4, 17, 3, 5, 3, 1, 1},
                      // Stride 3: three phase planes per channel.
                      ConvCase{11, 11, 3, 4, 3, 3, 1},
                      ConvCase{13, 20, 2, 3, 5, 3, 2},  // out_w 7
                      // out_w a multiple of kPosBlock: no ragged block.
                      ConvCase{4, 16, 3, 5, 3, 1, 1},
                      ConvCase{5, 16, 3, 4, 3, 2, 1}));  // out_w 8

// The q15 scratch the plan gives one image lane of `layer`'s step.
int64_t plan_scratch_elems(const QLayer& layer) {
  QModel m;
  if (const auto* conv = std::get_if<QConv2D>(&layer)) {
    m.in_h = conv->geom.in_h; m.in_w = conv->geom.in_w;
    m.in_c = conv->geom.in_c;
  } else {
    const auto& dw = std::get<QDepthwiseConv2D>(layer);
    m.in_h = dw.in_h; m.in_w = dw.in_w; m.in_c = dw.channels;
  }
  m.input = {1.0f / 255.0f, -128};
  m.layers = {layer};
  return ExecPlan::compile(m).scratch_elems;
}

// Packed conv, packed depthwise and unpacked programs over a
// caller-owned scratch of exactly the plan's size, refilled with a
// sentinel before every call. In the arena the scratch holds stale data
// of earlier steps and frames, so a kernel that reads a column or pad
// row it never wrote would differ from the reference here (an owned
// scratch is zero-filled and would hide it). Every column range, at
// batch 1 and 5 (a full lane block and a ragged tail).
TEST(PoisonedScratch, ConvDepthwiseAndUnpackedMatchReference) {
  constexpr int16_t kPoison = 0x7FFF;
  constexpr int kBatch = 5;
  std::vector<QLayer> layers;
  // in_h, in_w, in_c, out_c, kernel, stride, pad: ragged and whole
  // blocks, pad wider than the stride, strides 1-3.
  for (const ConvCase& c : {ConvCase{6, 11, 3, 4, 3, 1, 1},
                            ConvCase{5, 16, 2, 3, 3, 1, 1},
                            ConvCase{9, 13, 3, 2, 5, 2, 2},
                            ConvCase{11, 20, 2, 3, 3, 3, 1},
                            ConvCase{7, 10, 4, 3, 1, 1, 0}}) {
    ConvGeom g;
    g.in_h = c.in_h; g.in_w = c.in_w; g.in_c = c.in_c;
    g.out_c = c.out_c; g.kernel = c.kernel; g.stride = c.stride;
    g.pad = c.pad;
    layers.push_back(make_random_qconv(g, 700 + layers.size()));
    layers.push_back(make_random_qdw(c.in_h, c.in_w, c.in_c, c.kernel,
                                     c.stride, c.pad, 800 + layers.size()));
  }
  for (const QLayer& layer : layers) {
    const OpDescriptor d = describe_layer(layer);
    const auto* conv = std::get_if<QConv2D>(&layer);
    const auto* dw = std::get_if<QDepthwiseConv2D>(&layer);
    const ConvGeom g = conv != nullptr ? conv->geom : dw->expansion_geom();
    std::vector<uint8_t> skip(
        static_cast<size_t>(d.skippable_operand_count()));
    for (size_t i = 0; i < skip.size(); ++i) skip[i] = i % 3 == 1;
    const UnpackedLayer u = UnpackedLayer::build(layer, skip.data());
    const PackedWeights packed =
        conv != nullptr
            ? PackedWeights::pack(conv->weights, g.out_c, g.patch_size())
            : PackedWeights{};

    const size_t in_elems = static_cast<size_t>(d.in_elems);
    const size_t out_elems = static_cast<size_t>(d.out_elems);
    const auto in = make_random_input(
        static_cast<int64_t>(in_elems) * kBatch, 901);
    std::vector<int8_t> want(out_elems * kBatch), want_skip(want.size());
    for (size_t b = 0; b < kBatch; ++b) {
      const auto img = std::span(in).subspan(b * in_elems, in_elems);
      run_layer_ref(layer, img, {},
                    std::span(want).subspan(b * out_elems, out_elems));
      run_layer_ref(layer, img, {},
                    std::span(want_skip).subspan(b * out_elems, out_elems),
                    skip.data());
    }

    for (const int batch : {1, kBatch}) {
      std::vector<int16_t> scratch(
          static_cast<size_t>(plan_scratch_elems(layer)) *
          (batch == 1 ? 1 : kBatchLanes));
      const auto in_b = std::span(in).first(batch * in_elems);
      const auto poisoned = [&](auto run) {
        return [&, run](ColumnRange range, std::span<int8_t> out) {
          std::ranges::fill(scratch, kPoison);
          run(range, out);
          // The kernel wrote into this scratch, not an owned one.
          EXPECT_LT(std::ranges::count(scratch, kPoison),
                    static_cast<std::ptrdiff_t>(scratch.size()));
        };
      };
      const std::string where =
          (conv != nullptr ? "conv" : "depthwise") + std::string(" in_w ") +
          std::to_string(g.in_w) + " k " + std::to_string(g.kernel) +
          " stride " + std::to_string(g.stride) + " batch " +
          std::to_string(batch);
      const auto packed_run = poisoned([&](ColumnRange r,
                                           std::span<int8_t> out) {
        if (conv != nullptr) {
          packed_conv2d(*conv, packed, in_b, out, batch, scratch, r);
        } else {
          packed_depthwise_conv2d(*dw, in_b, out, batch, scratch, r);
        }
      });
      const auto unpacked_run = poisoned(
          [&](ColumnRange r, std::span<int8_t> out) {
            u.run(in_b, out, batch, scratch, r);
          });
      EXPECT_EQ(testing::first_column_range_mismatch(
                    packed_run, std::span(want).first(batch * out_elems),
                    g.out_w(), g.out_c),
                "")
          << "packed " << where;
      EXPECT_EQ(testing::first_column_range_mismatch(
                    unpacked_run,
                    std::span(want_skip).first(batch * out_elems), g.out_w(),
                    g.out_c),
                "")
          << "unpacked " << where;
    }
  }
}

// Row lanes: the conv block loop fills its kBatchLanes lanes with any
// (image, output row, column block) of a call, so lane groups straddle
// rows and images and the last group of a call is ragged. Packed conv,
// packed depthwise and a rung program emitting all three rungs (a store
// between bands) over out_h 1-5 and out_w 1-17 at strides 1 and 2, at
// batch 1, 2, 3 and 5, every column range against the reference
// kernels, with the output pre-filled by the column-range sentinel and a
// poisoned scratch of exactly the plan's size for min(batch, kBatchLanes)
// image copies.
TEST(RowLanes, RaggedGroupsMatchReferenceOnEveryColumnRange) {
  constexpr int16_t kPoison = 0x7FFF;
  const std::vector<double> taus = {0.3, 0.6};
  const int rungs = static_cast<int>(taus.size()) + 1;
  for (const int out_h : {1, 2, 3, 5}) {
    for (const int out_w : {1, 7, 9, 17}) {
      for (const int stride : {1, 2}) {
        // 3x3, pad 1: in = (out - 1) * stride + 1.
        const int in_h = (out_h - 1) * stride + 1;
        const int in_w = (out_w - 1) * stride + 1;
        ConvGeom cg;
        cg.in_h = in_h; cg.in_w = in_w; cg.in_c = 3;
        cg.out_c = 5; cg.kernel = 3; cg.stride = stride; cg.pad = 1;
        const uint64_t seed = static_cast<uint64_t>(100 * out_h + 10 * out_w + stride);
        const std::vector<QLayer> layers = {
            make_random_qconv(cg, seed),
            make_random_qdw(in_h, in_w, 3, 3, stride, 1, seed + 1)};
        for (const QLayer& layer : layers) {
          const OpDescriptor d = describe_layer(layer);
          ASSERT_EQ(d.out_elems, static_cast<int64_t>(out_h) * out_w * d.channels);
          const auto* conv = std::get_if<QConv2D>(&layer);
          const auto* dw = std::get_if<QDepthwiseConv2D>(&layer);
          LayerSignificance sig;
          sig.out_c = d.channels;
          sig.patch = d.patch;
          Rng rng(seed + 2);
          for (int64_t op = 0; op < d.skippable_operand_count(); ++op)
            sig.S.push_back(rng.next_float());
          const UnpackedLayer u = UnpackedLayer::build_rungs(layer, sig, taus);
          const PackedWeights packed =
              conv != nullptr ? PackedWeights::pack(conv->weights, cg.out_c,
                                                    cg.patch_size())
                              : PackedWeights{};

          constexpr int kMaxBatch = 5;
          const size_t in_elems = static_cast<size_t>(d.in_elems);
          const size_t out_elems = static_cast<size_t>(d.out_elems);
          const auto in = make_random_input(
              static_cast<int64_t>(in_elems) * kMaxBatch, seed + 3);
          for (const int batch : {1, 2, 3, kMaxBatch}) {
            const size_t n = out_elems * static_cast<size_t>(batch);
            const auto in_b = std::span(in).first(batch * in_elems);
            // want: the exact reference, then the reference under each
            // rung's mask, rung after rung.
            std::vector<int8_t> want(n), want_rungs(n * rungs);
            for (size_t b = 0; b < static_cast<size_t>(batch); ++b) {
              const auto img = in_b.subspan(b * in_elems, in_elems);
              run_layer_ref(layer, img, {},
                            std::span(want).subspan(b * out_elems, out_elems));
              for (int r = 0; r < rungs; ++r) {
                std::vector<uint8_t> skip(sig.S.size(), 0);
                for (size_t op = 0; op < skip.size(); ++op) {
                  skip[op] = r > 0 && sig.S[op] <= static_cast<float>(
                                                      taus[static_cast<size_t>(r - 1)]);
                }
                run_layer_ref(layer, img, {},
                              std::span(want_rungs)
                                  .subspan(static_cast<size_t>(r) * n +
                                               b * out_elems,
                                           out_elems),
                              skip.data());
              }
            }
            std::vector<int16_t> scratch(
                static_cast<size_t>(plan_scratch_elems(layer)) *
                static_cast<size_t>(std::min(batch, kBatchLanes)));
            const auto poisoned = [&](auto run) {
              return [&, run](ColumnRange range, std::span<int8_t> out) {
                std::ranges::fill(scratch, kPoison);
                run(range, out);
              };
            };
            const std::string where =
                (conv != nullptr ? "conv" : "depthwise") +
                std::string(" out ") + std::to_string(out_h) + "x" +
                std::to_string(out_w) + " stride " + std::to_string(stride) +
                " batch " + std::to_string(batch);
            EXPECT_EQ(testing::first_column_range_mismatch(
                          poisoned([&](ColumnRange r, std::span<int8_t> out) {
                            if (conv != nullptr) {
                              packed_conv2d(*conv, packed, in_b, out, batch,
                                            scratch, r);
                            } else {
                              packed_depthwise_conv2d(*dw, in_b, out, batch,
                                                      scratch, r);
                            }
                          }),
                          want, out_w, d.channels),
                      "")
                << "packed " << where;
            EXPECT_EQ(testing::first_column_range_mismatch(
                          poisoned([&](ColumnRange r, std::span<int8_t> out) {
                            std::vector<std::span<int8_t>> outs;
                            for (int k = 0; k < rungs; ++k)
                              outs.push_back(out.subspan(static_cast<size_t>(k) * n, n));
                            u.run_rungs(in_b, outs, batch, scratch, r);
                          }),
                          want_rungs, out_w, d.channels),
                      "")
                << "rung program " << where;
          }
        }
      }
    }
  }
}

// packed_dense over kBatchLanes images per weight row: every batch from
// 1 to 9 (whole lane groups, ragged tails, a lone image), odd and even
// in_dim, against dense_ref per image.
TEST(PackedDense, BatchMatchesReferencePerImage) {
  for (const int in_dim : {7, 8, 33, 64}) {
    const QDense fc = make_random_qdense(in_dim, 6, 500 + in_dim);
    const PackedWeights packed =
        PackedWeights::pack(fc.weights, fc.out_dim, fc.in_dim);
    for (int batch = 1; batch <= 9; ++batch) {
      const auto in = make_random_input(in_dim * batch, 501 + in_dim + batch);
      std::vector<int8_t> want(static_cast<size_t>(fc.out_dim) * batch);
      for (int b = 0; b < batch; ++b) {
        dense_ref(fc, std::span(in).subspan(static_cast<size_t>(b) * in_dim,
                                            static_cast<size_t>(in_dim)),
                  std::span(want).subspan(static_cast<size_t>(b) * fc.out_dim,
                                          static_cast<size_t>(fc.out_dim)));
      }
      std::vector<int16_t> scratch(static_cast<size_t>(in_dim) *
                                   std::min(batch, kBatchLanes));
      std::ranges::fill(scratch, int16_t{0x7FFF});
      std::vector<int8_t> got(want.size(), 0x5A);
      packed_dense(fc, packed, in, got, batch, scratch);
      EXPECT_EQ(got, want) << "in_dim " << in_dim << " batch " << batch;
    }
  }
}

// smlad_dot_lanes against smlad_dot_scalar per lane, on every tail
// length, with extreme and random operands.
TEST(Smlad, DotLanesMatchScalarOnEveryTailLength) {
  Rng rng(5);
  for (size_t pairs = 0; pairs <= 33; ++pairs) {
    std::vector<uint32_t> w(pairs);
    std::vector<std::vector<int16_t>> x(kBatchLanes,
                                        std::vector<int16_t>(2 * pairs));
    for (int trial = 0; trial < 10; ++trial) {
      const bool extreme = trial == 0;
      for (uint32_t& v : w) {
        v = extreme ? pack_weight_pair(-128, -128)
                    : pack_weight_pair(
                          static_cast<int8_t>(rng.next_int(-128, 127)),
                          static_cast<int8_t>(rng.next_int(-128, 127)));
      }
      const int16_t* lanes[kBatchLanes];
      int32_t acc[kBatchLanes], want[kBatchLanes];
      for (int j = 0; j < kBatchLanes; ++j) {
        for (int16_t& v : x[static_cast<size_t>(j)]) {
          v = extreme ? int16_t{-32768}
                      : static_cast<int16_t>(rng.next_int(-32768, 32767));
        }
        lanes[j] = x[static_cast<size_t>(j)].data();
        acc[j] = static_cast<int32_t>(rng.next_u64());
        want[j] = smlad_dot_scalar(w.data(), lanes[j], pairs, acc[j]);
      }
      smlad_dot_lanes(w.data(), lanes, pairs, acc);
      for (int j = 0; j < kBatchLanes; ++j)
        ASSERT_EQ(acc[j], want[j]) << "pairs=" << pairs << " lane " << j;
    }
  }
}

TEST(PackedDense, BitExactVsReference) {
  for (const int in_dim : {4, 5, 64, 129}) {
    const QDense fc = make_random_qdense(in_dim, 7, 300 + in_dim);
    const PackedWeights packed =
        PackedWeights::pack(fc.weights, fc.out_dim, fc.in_dim);
    const auto in = make_random_input(in_dim, 301 + in_dim);
    std::vector<int8_t> want(7), got(7);
    dense_ref(fc, in, want);
    packed_dense(fc, packed, in, got);
    EXPECT_EQ(want, got) << "in_dim=" << in_dim;
  }
}

TEST(CmsisEngine, BitExactVsReferenceEngine) {
  const QModel m = make_tiny_qmodel(9);
  RefEngine ref(&m);
  CmsisEngine cmsis(&m);
  for (int i = 0; i < 30; ++i) {
    const auto img = testing::make_random_image(12 * 12 * 3, 500 + i);
    ASSERT_EQ(ref.run(img), cmsis.run(img)) << "image " << i;
  }
}

// Sum of a profile's cycles; the contract is one row per plan step (its
// dispatch included) plus one softmax row.
int64_t profile_sum(const InferenceEngine& engine) {
  EXPECT_EQ(engine.layer_profile().size(), engine.model().layers.size() + 1)
      << engine.design_name();
  EXPECT_EQ(engine.layer_profile().back().kind, "softmax");
  int64_t sum = 0;
  for (const LayerProfile& p : engine.layer_profile()) sum += p.cycles;
  return sum;
}

TEST(CmsisEngine, CycleProfileCoversAllLayers) {
  const QModel m = make_tiny_qmodel(10);
  CmsisEngine engine(&m);
  EXPECT_GT(engine.total_cycles(), 0);
  int convs = 0, pools = 0, fcs = 0;
  for (const LayerProfile& p : engine.layer_profile()) {
    if (p.kind == "conv") ++convs;
    if (p.kind == "pool") ++pools;
    if (p.kind == "fc") ++fcs;
  }
  EXPECT_EQ(convs, 2);
  EXPECT_EQ(pools, 1);
  EXPECT_EQ(fcs, 1);
  EXPECT_EQ(profile_sum(engine), engine.total_cycles());

  // The same contract on the unpacked engine over every layer kind
  // (conv, depthwise, pools, add, fc), with all approximable layers
  // unpacked and with a hybrid selection that keeps some packed.
  for (const QModel& model :
       {make_tiny_qmodel(12), testing::make_residual_qmodel(13),
        testing::make_tiny_vww_qmodel(14)}) {
    std::vector<uint8_t> hybrid(
        static_cast<size_t>(model.approx_layer_count()));
    for (size_t i = 0; i < hybrid.size(); ++i) hybrid[i] = i % 2 == 0;
    EXPECT_EQ(profile_sum(CmsisEngine(&model)),
              CmsisEngine(&model).total_cycles());
    for (const std::vector<uint8_t>* selection :
         {static_cast<const std::vector<uint8_t>*>(nullptr),
          static_cast<const std::vector<uint8_t>*>(&hybrid)}) {
      const UnpackedEngine unpacked(&model, nullptr, selection);
      EXPECT_EQ(profile_sum(unpacked), unpacked.total_cycles())
          << model.name << (selection != nullptr ? " hybrid" : "");
    }
  }
}

TEST(CmsisEngine, DeployReportIsConsistent) {
  const QModel m = make_tiny_qmodel(11);
  CmsisEngine engine(&m);
  SynthCifarSpec spec;
  spec.train_images = 0;
  spec.test_images = 40;
  // 12x12x3 model: build a matching dataset manually.
  Dataset eval(ImageShape{12, 12, 3}, 10);
  Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    std::vector<uint8_t> img(12 * 12 * 3);
    for (auto& p : img) p = static_cast<uint8_t>(rng.next_int(0, 255));
    eval.add(img, rng.next_int(0, 9));
  }
  const BoardSpec board;
  const DeployReport r = engine.deploy(eval, board);
  EXPECT_EQ(r.design, "cmsis-nn");
  EXPECT_GT(r.latency_ms, 0.0);
  EXPECT_NEAR(r.energy_mj, r.latency_ms * 0.033, 1e-9);
  EXPECT_GT(r.flash_bytes, m.weight_bytes());
  EXPECT_TRUE(r.fits_flash);
  EXPECT_TRUE(r.fits_ram);
  EXPECT_GE(r.top1_accuracy, 0.0);
  EXPECT_LE(r.top1_accuracy, 1.0);
}

}  // namespace
}  // namespace ataman
