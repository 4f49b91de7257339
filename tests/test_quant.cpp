// Quantization substrate: affine params, range observer, PTQ of a trained
// float net, QModel serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "src/common/error.hpp"
#include "src/core/exec_plan.hpp"
#include "src/nn/engine.hpp"
#include "src/quant/calibrate.hpp"
#include "src/quant/qmodel_io.hpp"
#include "src/quant/quantizer.hpp"
#include "src/train/model_zoo.hpp"

namespace ataman {
namespace {

TEST(QuantParams, RoundTripWithinOneScale) {
  QuantParams p{0.05f, -10};
  for (const float v : {-3.0f, -0.07f, 0.0f, 0.55f, 2.9f}) {
    const int8_t q = p.quantize(v);
    EXPECT_NEAR(p.dequantize(q), v, p.scale * 0.51f) << v;
  }
}

TEST(QuantParams, SaturatesAtInt8Limits) {
  QuantParams p{0.01f, 0};
  EXPECT_EQ(p.quantize(100.0f), 127);
  EXPECT_EQ(p.quantize(-100.0f), -128);
}

TEST(RangeObserver, MinMaxTracking) {
  RangeObserver obs;
  const float data[] = {0.5f, -1.5f, 3.0f, 0.0f};
  obs.observe(data, 4);
  EXPECT_FLOAT_EQ(obs.min(), -1.5f);
  EXPECT_FLOAT_EQ(obs.max(), 3.0f);
  EXPECT_THROW(RangeObserver().min(), Error);
}

TEST(RangeObserver, AffineParamsRepresentZeroExactly) {
  RangeObserver obs;
  const float data[] = {0.1f, 4.9f};
  obs.observe(data, 2);
  const QuantParams p = obs.to_affine_params();
  // real 0 must map to an exact integer (the zero point).
  const float recon = p.dequantize(p.quantize(0.0f));
  EXPECT_FLOAT_EQ(recon, 0.0f);
  EXPECT_GE(p.zero_point, -128);
  EXPECT_LE(p.zero_point, 127);
}

TEST(RangeObserver, SymmetricParams) {
  RangeObserver obs;
  const float data[] = {-2.0f, 1.0f};
  obs.observe(data, 2);
  const QuantParams p = obs.to_symmetric_params();
  EXPECT_EQ(p.zero_point, 0);
  EXPECT_NEAR(p.scale, 2.0f / 127.0f, 1e-6f);
}

TEST(RangeObserver, QuantileClippingTrimsOutliers) {
  RangeObserver clipped(0.01);
  RangeObserver raw(0.0);
  Rng rng(5);
  std::vector<float> data(10000);
  for (auto& v : data) v = rng.next_normal(0.0f, 1.0f);
  data[17] = 500.0f;  // gross outlier
  clipped.observe(data.data(), static_cast<int64_t>(data.size()));
  raw.observe(data.data(), static_cast<int64_t>(data.size()));
  const auto [clo, chi] = clipped.clipped_range();
  const auto [rlo, rhi] = raw.clipped_range();
  EXPECT_LT(chi, 100.0f);   // outlier clipped away
  EXPECT_GE(rhi, 499.0f);   // raw keeps it
  EXPECT_LT(clo, 0.0f);
  (void)rlo;
}

TEST(RangeObserver, MergeCoversBothRanges) {
  RangeObserver a, b;
  const float da[] = {-1.0f, 0.5f};
  const float db[] = {0.2f, 7.0f};
  a.observe(da, 2);
  b.observe(db, 2);
  a.merge(b);
  EXPECT_FLOAT_EQ(a.min(), -1.0f);
  EXPECT_FLOAT_EQ(a.max(), 7.0f);
}

class QuantizedMicronet : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ZooSpec spec = micronet_spec();
    spec.data.train_images = 600;
    spec.data.test_images = 300;
    spec.train.epochs = 5;
    spec.train.lr_decay_at = {4};
    model_ = new TrainedModel(train_from_scratch(spec, /*verbose=*/false));
    data_ = new SynthCifar(make_synth_cifar(spec.data));
    qmodel_ = new QModel(quantize_model(model_->net, data_->train));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete data_;
    delete qmodel_;
    model_ = nullptr;
    data_ = nullptr;
    qmodel_ = nullptr;
  }
  static TrainedModel* model_;
  static SynthCifar* data_;
  static QModel* qmodel_;
};

TrainedModel* QuantizedMicronet::model_ = nullptr;
SynthCifar* QuantizedMicronet::data_ = nullptr;
QModel* QuantizedMicronet::qmodel_ = nullptr;

TEST_F(QuantizedMicronet, StructureMatchesFloatNet) {
  EXPECT_EQ(qmodel_->conv_layer_count(), 2);
  EXPECT_EQ(qmodel_->layers.size(), 5u);  // conv pool conv pool fc
  EXPECT_EQ(qmodel_->mac_count(), model_->net.mac_count());
}

TEST_F(QuantizedMicronet, ReluFoldedIntoConvClamp) {
  // Both convs are followed by ReLU in micronet: act_min == out zero point.
  for (const QLayer& layer : qmodel_->layers) {
    if (const auto* conv = std::get_if<QConv2D>(&layer)) {
      EXPECT_EQ(conv->act_min, conv->out.zero_point);
    }
  }
}

TEST_F(QuantizedMicronet, InputParamsAreStandard) {
  EXPECT_FLOAT_EQ(qmodel_->input.scale, 1.0f / 255.0f);
  EXPECT_EQ(qmodel_->input.zero_point, -128);
}

// The plan's input table is QuantParams::quantize(v / 255) for every u8
// value (for these parameters, exactly v - 128), and quantize_input is
// the table applied per pixel.
TEST_F(QuantizedMicronet, InputTableMatchesQuantize) {
  const ExecPlan plan = ExecPlan::compile(*qmodel_);
  std::vector<uint8_t> pixels(256);
  for (int v = 0; v < 256; ++v) {
    const size_t i = static_cast<size_t>(v);
    EXPECT_EQ(plan.input_table[i],
              qmodel_->input.quantize(static_cast<float>(v) / 255.0f))
        << v;
    EXPECT_EQ(plan.input_table[i], v - 128) << v;
    pixels[i] = static_cast<uint8_t>(255 - v);
  }
  std::vector<int8_t> q(pixels.size());
  plan.quantize_input(pixels, q);
  for (size_t i = 0; i < pixels.size(); ++i)
    EXPECT_EQ(q[i], plan.input_table[pixels[i]]) << i;
  EXPECT_THROW(plan.quantize_input(pixels, std::span(q).first(255)), Error);
}

TEST_F(QuantizedMicronet, AccuracyCloseToFloat) {
  const double qacc = evaluate_quantized_accuracy(*qmodel_, data_->test);
  const double facc = evaluate_accuracy(model_->net, data_->test);
  EXPECT_NEAR(qacc, facc, 0.06);
}

TEST_F(QuantizedMicronet, SaveLoadRoundTripBitExact) {
  const std::string path = "/tmp/ataman_qm_roundtrip.qm";
  save_qmodel(*qmodel_, path);
  const QModel loaded = load_qmodel(path);
  RefEngine a(qmodel_), b(&loaded);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.run(data_->test.image(i)), b.run(data_->test.image(i)));
  }
  std::remove(path.c_str());
}

TEST_F(QuantizedMicronet, SaveLoadPreservesPerChannelVectors) {
  // The per-channel trailer must round-trip the full w_scales/requant
  // vectors bitwise (distinct scales, not just the channel-0 scalar the
  // legacy inline slots carry).
  const std::string path = "/tmp/ataman_qm_perchannel_roundtrip.qm";
  save_qmodel(*qmodel_, path);
  const QModel loaded = load_qmodel(path);
  std::remove(path.c_str());
  ASSERT_EQ(loaded.layers.size(), qmodel_->layers.size());
  for (size_t l = 0; l < loaded.layers.size(); ++l) {
    const auto* want = std::get_if<QConv2D>(&qmodel_->layers[l]);
    if (want == nullptr) continue;
    const auto* got = std::get_if<QConv2D>(&loaded.layers[l]);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->w_scales, want->w_scales) << "layer " << l;
    ASSERT_EQ(got->requant.size(), want->requant.size()) << "layer " << l;
    for (size_t c = 0; c < want->requant.size(); ++c) {
      EXPECT_EQ(got->requant[c].mult, want->requant[c].mult)
          << "layer " << l << " channel " << c;
      EXPECT_EQ(got->requant[c].shift, want->requant[c].shift)
          << "layer " << l << " channel " << c;
    }
  }
}

TEST_F(QuantizedMicronet, BiasScaleConsistency) {
  // Bias channel c is stored at in_scale*w_scales[c]: requant of a
  // (bias-only) output must approximate the float bias in the output
  // scale.
  for (const QLayer& layer : qmodel_->layers) {
    const auto* conv = std::get_if<QConv2D>(&layer);
    if (conv == nullptr) continue;
    ASSERT_EQ(conv->w_scales.size(), conv->bias.size());
    for (size_t c = 0; c < conv->bias.size(); ++c) {
      const double bias_scale =
          static_cast<double>(conv->in.scale) * conv->w_scales[c];
      // Sanity: dequantized bias magnitudes are small (trained with
      // weight decay; bias real values < 2).
      EXPECT_LT(std::abs(static_cast<double>(conv->bias[c]) * bias_scale),
                4.0);
    }
  }
}

TEST_F(QuantizedMicronet, PerChannelScalesVaryAcrossChannels) {
  // Per-channel quantization must actually produce distinct scales on a
  // trained net (all-equal would mean the per-tensor path leaked in).
  for (const QLayer& layer : qmodel_->layers) {
    const auto* conv = std::get_if<QConv2D>(&layer);
    if (conv == nullptr) continue;
    ASSERT_EQ(static_cast<int>(conv->w_scales.size()), conv->geom.out_c);
    ASSERT_EQ(conv->w_scales.size(), conv->requant.size());
    bool distinct = false;
    for (const float s : conv->w_scales) {
      EXPECT_GT(s, 0.0f);
      if (s != conv->w_scales[0]) distinct = true;
    }
    EXPECT_TRUE(distinct);
  }
}

}  // namespace
}  // namespace ataman
