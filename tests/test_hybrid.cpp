// Hybrid deployment: per-layer packed/unpacked selection under a flash
// budget (the §II-B flash/latency trade-off, generalized).
#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/nn/engine.hpp"
#include "src/unpack/layer_selection.hpp"
#include "src/unpack/unpacked_engine.hpp"
#include "tests/test_util.hpp"

namespace ataman {
namespace {

using testing::make_tiny_qmodel;

SkipMask random_mask(const QModel& m, double density, uint64_t seed) {
  SkipMask mask = SkipMask::none(m);
  Rng rng(seed);
  for (auto& layer_mask : mask.masks)
    for (auto& v : layer_mask) v = rng.next_bool(density) ? 1 : 0;
  return mask;
}

TEST(Hybrid, AnalyzeProducesOneChoicePerConv) {
  const QModel m = make_tiny_qmodel(100);
  const SkipMask mask = random_mask(m, 0.5, 101);
  const HybridPlan plan = analyze_layer_choices(m, mask);
  EXPECT_EQ(static_cast<int>(plan.choices.size()), m.approx_layer_count());
  for (const LayerDeployChoice& c : plan.choices) {
    EXPECT_GT(c.packed_cycles, 0);
    EXPECT_GT(c.unpacked_cycles, 0);
    EXPECT_GT(c.packed_flash, 0);
    EXPECT_GT(c.unpacked_flash, 0);
  }
}

TEST(Hybrid, UnlimitedBudgetTakesEveryCycleSavingLayer) {
  const QModel m = make_tiny_qmodel(102);
  const SkipMask mask = random_mask(m, 0.6, 103);
  const HybridPlan plan = select_layers_to_unpack(m, mask, /*budget=*/0);
  for (const LayerDeployChoice& c : plan.choices) {
    if (c.packed_cycles > c.unpacked_cycles) {
      EXPECT_TRUE(c.unpack);
    } else {
      EXPECT_FALSE(c.unpack);
    }
  }
  EXPECT_GE(plan.total_cycle_saving(), 0);
}

TEST(Hybrid, TinyBudgetSelectsNothing) {
  const QModel m = make_tiny_qmodel(104);
  const SkipMask mask = random_mask(m, 0.5, 105);
  // Budget below even the packed model size: no layer can be unpacked
  // unless unpacking *shrinks* flash (possible at extreme skip rates).
  const HybridPlan plan = select_layers_to_unpack(m, mask, /*budget=*/1);
  for (const LayerDeployChoice& c : plan.choices) {
    if (c.unpack) {
      EXPECT_LT(c.unpacked_flash, c.packed_flash);
    }
  }
}

TEST(Hybrid, NoSkipsKeepsFastPathLayersPacked) {
  // Without skipping, unpacked straight-line code is slower than the
  // packed fast path for 4-aligned layers — selection must keep them
  // packed. (Both convs of the tiny model satisfy in_c%4==0 except conv0
  // with in_c=3, which is a basic-path layer and should flip.)
  const QModel m = make_tiny_qmodel(106);
  const SkipMask none = SkipMask::none(m);
  const HybridPlan plan = select_layers_to_unpack(m, none, 0);
  const auto* conv0 = std::get_if<QConv2D>(&m.layers[0]);
  ASSERT_NE(conv0, nullptr);
  ASSERT_FALSE(packed_conv_uses_fast_path(*conv0));  // in_c == 3
  EXPECT_TRUE(plan.choices[0].unpack)
      << "basic-path RGB stem should be unpacked even without skipping";
}

TEST(Hybrid, EngineBitExactUnderAnySelection) {
  const QModel m = make_tiny_qmodel(107);
  const SkipMask mask = random_mask(m, 0.4, 108);

  // Hybrid semantics: skips apply only to unpacked layers; packed layers
  // run exact. Build the reference expectation accordingly.
  for (const std::vector<uint8_t>& selection :
       {std::vector<uint8_t>{1, 1}, std::vector<uint8_t>{0, 1},
        std::vector<uint8_t>{1, 0}, std::vector<uint8_t>{0, 0}}) {
    SkipMask effective = mask;
    for (size_t l = 0; l < selection.size(); ++l) {
      if (!selection[l])
        std::fill(effective.masks[l].begin(),
                  effective.masks[l].end(), 0);
    }
    RefEngine ref(&m);
    const UnpackedEngine hybrid(&m, &mask, &selection);
    for (int i = 0; i < 10; ++i) {
      const auto img = testing::make_random_image(12 * 12 * 3, 1100 + i);
      ASSERT_EQ(ref.run(img, &effective), hybrid.run(img))
          << "selection {" << int(selection[0]) << "," << int(selection[1])
          << "} image " << i;
    }
  }
}

TEST(Hybrid, EngineProfilesReflectSelection) {
  const QModel m = make_tiny_qmodel(109);
  const std::vector<uint8_t> selection = {0, 1};
  const UnpackedEngine engine(&m, nullptr, &selection);
  EXPECT_EQ(engine.unpacked_conv_count(), 1);
  int packed_convs = 0, unpacked_convs = 0;
  for (const LayerProfile& p : engine.layer_profile()) {
    if (p.kind == "conv(packed)") ++packed_convs;
    if (p.kind == "conv(unpacked)") ++unpacked_convs;
  }
  EXPECT_EQ(packed_convs, 1);
  EXPECT_EQ(unpacked_convs, 1);
}

TEST(Hybrid, PackedSelectionKeepsWeightsInFlash) {
  const QModel m = make_tiny_qmodel(110);
  const std::vector<uint8_t> all_packed = {0, 0};
  const std::vector<uint8_t> all_unpacked = {1, 1};
  const UnpackedEngine packed_engine(&m, nullptr, &all_packed);
  const UnpackedEngine unpacked_engine(&m, nullptr, &all_unpacked);
  EXPECT_GT(packed_engine.flash().weight_bytes,
            unpacked_engine.flash().weight_bytes);
  EXPECT_EQ(packed_engine.flash().unpacked_code_bytes, 0);
  EXPECT_GT(unpacked_engine.flash().unpacked_code_bytes, 0);
}

TEST(Hybrid, SelectionValidatesSize) {
  const QModel m = make_tiny_qmodel(111);
  const std::vector<uint8_t> wrong = {1};
  EXPECT_THROW(UnpackedEngine(&m, nullptr, &wrong), Error);
}

TEST(Hybrid, BudgetSweepIsMonotone) {
  // Larger budgets can only increase (or keep) total cycle savings.
  const QModel m = make_tiny_qmodel(112);
  const SkipMask mask = random_mask(m, 0.5, 113);
  int64_t prev_saving = -1;
  for (const int64_t budget :
       {int64_t{40} * 1024, int64_t{60} * 1024, int64_t{100} * 1024,
        int64_t{0} /* unlimited */}) {
    const HybridPlan plan = select_layers_to_unpack(m, mask, budget);
    EXPECT_GE(plan.total_cycle_saving(), prev_saving);
    prev_saving = plan.total_cycle_saving();
  }
}

}  // namespace
}  // namespace ataman
