// X-CUBE-AI comparator (the packed plan under the X-CUBE-AI price list)
// and the qualitative baseline models.
#include <gtest/gtest.h>

#include "src/baselines/qualitative.hpp"
#include "src/cmsisnn/cmsis_engine.hpp"
#include "src/mcu/cost_model.hpp"
#include "src/mcu/memory_model.hpp"
#include "src/nn/engine.hpp"
#include "tests/test_util.hpp"

namespace ataman {
namespace {

using testing::make_tiny_qmodel;

TEST(XCube, ExactNumericsMatchReference) {
  const QModel m = make_tiny_qmodel(90);
  const CmsisEngine xcube(&m, PriceList::kXCube);
  RefEngine ref(&m);
  for (int i = 0; i < 20; ++i) {
    const auto img = testing::make_random_image(12 * 12 * 3, 910 + i);
    EXPECT_EQ(xcube.classify(img), ref.classify(img));
  }
}

TEST(XCube, FasterThanCmsisOnFastPathModels) {
  // X-CUBE-AI beats CMSIS on both paper networks; our cost profile must
  // reproduce that ordering on comparable models.
  const QModel m = make_tiny_qmodel(91);
  const CmsisEngine xcube(&m, PriceList::kXCube);
  CmsisEngine cmsis(&m);
  EXPECT_LT(xcube.total_cycles(), cmsis.total_cycles());
}

TEST(XCube, SmallerFlashThanCmsis) {
  const QModel m = make_tiny_qmodel(92);
  const CmsisEngine xcube(&m, PriceList::kXCube);
  const FlashReport cmsis = packed_flash(m);
  EXPECT_LT(xcube.flash_bytes(), cmsis.total_bytes);
}

TEST(XCube, DeployReportShape) {
  const QModel m = make_tiny_qmodel(93);
  const CmsisEngine xcube(&m, PriceList::kXCube);
  Dataset eval(ImageShape{12, 12, 3}, 10);
  Rng rng(94);
  for (int i = 0; i < 30; ++i) {
    std::vector<uint8_t> img(12 * 12 * 3);
    for (auto& p : img) p = static_cast<uint8_t>(rng.next_int(0, 255));
    eval.add(img, rng.next_int(0, 9));
  }
  const DeployReport r = xcube.deploy(eval, BoardSpec{});
  EXPECT_EQ(r.design, "x-cube-ai");
  EXPECT_GT(r.latency_ms, 0.0);
  EXPECT_GT(r.energy_mj, 0.0);
  EXPECT_EQ(r.mac_ops, m.mac_count());
}

TEST(CMixNN, MatchesCitedOperatingPoint) {
  // §III: ~326 ms at 13.8 M MACs on a 160 MHz core.
  const CMixNNModel cmix;
  const BoardSpec board;
  EXPECT_NEAR(cmix.latency_ms(13'800'000, board), 326.0, 5.0);
}

TEST(MicroTvm, ThirteenPercentOverheadVsCmsis) {
  const MicroTvmModel utvm;
  EXPECT_EQ(utvm.cycles(1'000'000), 1'130'000);
}

}  // namespace
}  // namespace ataman
