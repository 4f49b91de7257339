// CMSIS-NN-like substrate: SMLAD instruction semantics (including the
// paper's own packing example), packed kernels bit-exact vs. reference,
// full-engine equivalence.
#include <gtest/gtest.h>

#include "src/cmsisnn/cmsis_engine.hpp"
#include "src/data/synth_cifar.hpp"
#include "src/cmsisnn/smlad.hpp"
#include "src/nn/engine.hpp"
#include "src/nn/qkernels_ref.hpp"
#include "src/unpack/unpacked_engine.hpp"
#include "tests/test_util.hpp"

namespace ataman {
namespace {

using testing::make_random_input;
using testing::make_random_qconv;
using testing::make_random_qdense;
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
  const auto in = make_random_input(
      static_cast<int64_t>(g.in_h) * g.in_w * g.in_c, 90);

  std::vector<int8_t> want(static_cast<size_t>(g.positions()) * g.out_c);
  std::vector<int8_t> got(want.size());
  conv2d_ref(conv, in, want);
  packed_conv2d(conv, packed, in, got);
  EXPECT_EQ(want, got);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PackedConvShapes,
    ::testing::Values(ConvCase{8, 8, 3, 4, 3, 1, 1},   // odd patch (27)
                      ConvCase{8, 8, 4, 6, 3, 1, 1},   // even patch (36)
                      ConvCase{10, 10, 2, 3, 5, 1, 2}, // k=5, even patch
                      ConvCase{10, 10, 3, 2, 5, 1, 2}, // k=5, odd patch (75)
                      ConvCase{9, 7, 5, 4, 3, 2, 0},   // stride 2, no pad
                      ConvCase{6, 6, 1, 8, 1, 1, 0},   // 1x1 conv
                      ConvCase{12, 12, 8, 3, 5, 2, 2}));

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
      const UnpackedEngine unpacked(&model, nullptr, {}, {}, selection);
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
