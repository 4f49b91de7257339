#include "src/quant/quantizer.hpp"

#include <cmath>
#include <numeric>

#include "src/common/math_util.hpp"
#include "src/quant/calibrate.hpp"

namespace ataman {

namespace {

// Quantize one weight tensor symmetrically; returns the scale.
float quantize_weights(const std::vector<float>& w, std::vector<int8_t>& out) {
  float absmax = 0.0f;
  for (const float v : w) absmax = std::max(absmax, std::abs(v));
  const float scale = absmax > 0.0f ? absmax / 127.0f : 1e-8f;
  out.resize(w.size());
  for (size_t i = 0; i < w.size(); ++i)
    out[i] = saturate_int8(round_to_int32(w[i] / scale));
  return scale;
}

float scale_from_absmax(float absmax) {
  return absmax > 0.0f ? absmax / 127.0f : 1e-8f;
}

// Per-output-channel symmetric quantization of a conv weight tensor
// ([out_c][k][k][in_c]: one contiguous patch per output channel). With
// per_channel off, every channel shares the tensor-wide max-abs scale —
// bitwise-identical to the historical per-tensor path.
std::vector<float> quantize_conv_weights(const std::vector<float>& w,
                                         int out_c, std::vector<int8_t>& out,
                                         bool per_channel) {
  check(out_c > 0 && w.size() % static_cast<size_t>(out_c) == 0,
        "conv weight tensor not divisible into output channels");
  const size_t patch = w.size() / static_cast<size_t>(out_c);
  std::vector<float> scales(static_cast<size_t>(out_c));
  if (per_channel) {
    for (size_t c = 0; c < scales.size(); ++c) {
      float absmax = 0.0f;
      for (size_t i = c * patch; i < (c + 1) * patch; ++i)
        absmax = std::max(absmax, std::abs(w[i]));
      scales[c] = scale_from_absmax(absmax);
    }
  } else {
    float absmax = 0.0f;
    for (const float v : w) absmax = std::max(absmax, std::abs(v));
    scales.assign(scales.size(), scale_from_absmax(absmax));
  }
  out.resize(w.size());
  for (size_t c = 0; c < scales.size(); ++c)
    for (size_t i = c * patch; i < (c + 1) * patch; ++i)
      out[i] = saturate_int8(round_to_int32(w[i] / scales[c]));
  return scales;
}

// Per-channel quantization of a depthwise weight tensor ([k][k][channels],
// channel innermost: channel c's taps sit at stride `channels`).
std::vector<float> quantize_dw_weights(const std::vector<float>& w,
                                       int channels, std::vector<int8_t>& out,
                                       bool per_channel) {
  check(channels > 0 && w.size() % static_cast<size_t>(channels) == 0,
        "depthwise weight tensor not divisible into channels");
  const int taps = static_cast<int>(w.size()) / channels;
  std::vector<float> scales(static_cast<size_t>(channels));
  if (per_channel) {
    for (int c = 0; c < channels; ++c) {
      float absmax = 0.0f;
      for (int t = 0; t < taps; ++t)
        absmax = std::max(absmax, std::abs(w[dw_weight_index(c, t, channels)]));
      scales[static_cast<size_t>(c)] = scale_from_absmax(absmax);
    }
  } else {
    float absmax = 0.0f;
    for (const float v : w) absmax = std::max(absmax, std::abs(v));
    scales.assign(scales.size(), scale_from_absmax(absmax));
  }
  out.resize(w.size());
  for (int c = 0; c < channels; ++c)
    for (int t = 0; t < taps; ++t) {
      const size_t i = dw_weight_index(c, t, channels);
      out[i] =
          saturate_int8(round_to_int32(w[i] / scales[static_cast<size_t>(c)]));
    }
  return scales;
}

std::vector<int32_t> quantize_bias(const std::vector<float>& b,
                                   float in_scale, float w_scale) {
  std::vector<int32_t> out(b.size());
  const double s = static_cast<double>(in_scale) * w_scale;
  for (size_t i = 0; i < b.size(); ++i)
    out[i] = static_cast<int32_t>(std::llround(b[i] / s));
  return out;
}

// Per-channel bias: bias[c] lives at scale in_scale * w_scales[c].
std::vector<int32_t> quantize_bias(const std::vector<float>& b, float in_scale,
                                   const std::vector<float>& w_scales) {
  check(b.size() == w_scales.size(),
        "bias / per-channel weight scale length mismatch");
  std::vector<int32_t> out(b.size());
  for (size_t i = 0; i < b.size(); ++i) {
    const double s = static_cast<double>(in_scale) * w_scales[i];
    out[i] = static_cast<int32_t>(std::llround(b[i] / s));
  }
  return out;
}

}  // namespace

QModel quantize_model(Network& net, const Dataset& calib,
                      const QuantizerConfig& config) {
  check(calib.size() > 0, "calibration dataset is empty");
  const int n_calib = std::min(config.calibration_images, calib.size());

  // --- Pass 1: float forward over the calibration subset, observing the
  // output range of every conv/dense layer (post-ReLU when ReLU follows,
  // since ReLU is folded into the layer's output clamp). The walk mirrors
  // Network::forward's DAG dispatch: residual add layers read the chain
  // predecessor plus a cached skip-edge tensor.
  const auto& layers = net.layers();
  const auto& specs = net.arch().layers;
  check(specs.size() == layers.size(),
        "architecture spec / layer list length mismatch");
  std::vector<RangeObserver> observers(layers.size(),
                                       RangeObserver(config.clip_quantile));
  // Float spec indices read by some later add's skip edge.
  std::vector<uint8_t> tapped(layers.size(), 0);
  bool input_tapped = false;
  for (const LayerSpec& s : specs) {
    if (s.kind != LayerSpec::Kind::kAdd) continue;
    if (s.from < 0)
      input_tapped = true;
    else
      tapped[static_cast<size_t>(s.from)] = 1;
  }

  std::vector<int> indices(static_cast<size_t>(n_calib));
  std::iota(indices.begin(), indices.end(), 0);
  constexpr int kBatch = 32;
  for (size_t lo = 0; lo < indices.size(); lo += kBatch) {
    const size_t hi = std::min(indices.size(), lo + kBatch);
    FTensor cur = to_float_batch(calib, indices, lo, hi);
    const FTensor input = input_tapped ? cur : FTensor();
    std::vector<FTensor> taps(layers.size());
    for (size_t li = 0; li < layers.size(); ++li) {
      Layer* layer = layers[li].get();
      if (auto* add = dynamic_cast<AddLayer*>(layer)) {
        const int from = specs[li].from;
        cur = add->forward2(
            cur, from < 0 ? input : taps[static_cast<size_t>(from)]);
      } else {
        if (dynamic_cast<DenseLayer*>(layer) != nullptr && cur.rank() != 2) {
          FTensor flat({cur.dim(0), static_cast<int>(cur.item_size())});
          std::copy(cur.data(), cur.data() + cur.size(), flat.data());
          cur = std::move(flat);
        }
        cur = layer->forward(cur, /*train=*/false);
      }
      observers[li].observe(cur.data(), cur.size());
      if (tapped[li]) taps[li] = cur;
    }
  }

  // --- Pass 2: assemble the QModel.
  QModel qm;
  qm.name = net.arch().name;
  qm.topology = net.arch().topology;
  qm.in_h = net.input_shape().height;
  qm.in_w = net.input_shape().width;
  qm.in_c = net.input_shape().channels;
  // Inputs are u8/255 in [0,1]: scale 1/255, zero_point -128 is exact
  // (q = pixel - 128).
  qm.input = {1.0f / 255.0f, -128};

  QuantParams act = qm.input;
  // Running activation extent (valid while the net is still spatial).
  int h = qm.in_h, w = qm.in_w, c = qm.in_c;
  // Per-float-spec output tensor id in the emitted QModel (tensor 0 =
  // network input, tensor l+1 = output of emitted layer l) and its
  // quantization params; folded ReLU specs share their producer's
  // tensor. Resolves residual skip edges to emitted tensor ids.
  std::vector<int> spec_tensor(layers.size(), 0);
  std::vector<QuantParams> spec_params(layers.size(), qm.input);
  std::vector<std::vector<int>> layer_inputs;
  bool has_add = false;
  for (size_t li = 0; li < layers.size(); ++li) {
    Layer* layer = layers[li].get();
    // Tensor id feeding this layer: the current top of the chain.
    const int top = static_cast<int>(qm.layers.size());
    const bool relu_next =
        li + 1 < layers.size() &&
        dynamic_cast<ReluLayer*>(layers[li + 1].get()) != nullptr;
    // Observer of the folded output: post-ReLU range when folding.
    const RangeObserver& out_obs = observers[relu_next ? li + 1 : li];

    if (auto* conv = dynamic_cast<Conv2DLayer*>(layer)) {
      QConv2D q;
      q.geom = conv->geom();
      q.in = act;
      q.w_scales = quantize_conv_weights(conv->weights(), q.geom.out_c,
                                         q.weights,
                                         config.per_channel_weights);
      q.bias = quantize_bias(conv->bias(), act.scale, q.w_scales);
      q.out = out_obs.to_affine_params();
      refresh_requant(q);
      q.act_min = relu_next ? q.out.zero_point : -128;
      q.act_max = 127;
      act = q.out;
      h = q.geom.out_h();
      w = q.geom.out_w();
      c = q.geom.out_c;
      qm.layers.emplace_back(std::move(q));
    } else if (auto* dw = dynamic_cast<DepthwiseConv2DLayer*>(layer)) {
      QDepthwiseConv2D q;
      q.in_h = dw->geom().in_h;
      q.in_w = dw->geom().in_w;
      q.channels = dw->geom().channels;
      q.kernel = dw->geom().kernel;
      q.stride = dw->geom().stride;
      q.pad = dw->geom().pad;
      q.in = act;
      q.w_scales = quantize_dw_weights(dw->weights(), q.channels, q.weights,
                                       config.per_channel_weights);
      q.bias = quantize_bias(dw->bias(), act.scale, q.w_scales);
      q.out = out_obs.to_affine_params();
      refresh_requant(q);
      q.act_min = relu_next ? q.out.zero_point : -128;
      q.act_max = 127;
      act = q.out;
      h = q.out_h();
      w = q.out_w();
      qm.layers.emplace_back(std::move(q));
    } else if (auto* fc = dynamic_cast<DenseLayer*>(layer)) {
      QDense q;
      q.in_dim = fc->in_dim();
      q.out_dim = fc->out_dim();
      q.in = act;
      q.w_scale = quantize_weights(fc->weights(), q.weights);
      q.bias = quantize_bias(fc->bias(), act.scale, q.w_scale);
      q.out = out_obs.to_affine_params();
      q.requant = quantize_multiplier(
          static_cast<double>(act.scale) * q.w_scale / q.out.scale);
      q.act_min = relu_next ? q.out.zero_point : -128;
      q.act_max = 127;
      act = q.out;
      qm.layers.emplace_back(std::move(q));
    } else if (auto* pool = dynamic_cast<MaxPool2DLayer*>(layer)) {
      // Max pooling commutes with the (monotone) quantization map: params
      // pass through unchanged.
      validate_pool_geometry(h, w, pool->kernel(), pool->stride(),
                             "quantizer maxpool");
      QMaxPool q;
      q.in_h = h;
      q.in_w = w;
      q.channels = c;
      q.kernel = pool->kernel();
      q.stride = pool->stride();
      h = q.out_h();
      w = q.out_w();
      qm.layers.emplace_back(q);
    } else if (auto* pool = dynamic_cast<AvgPool2DLayer*>(layer)) {
      // Int8 average pooling reuses the input quantization (TFLite
      // convention: in/out params equal, rounding divide in q space).
      validate_pool_geometry(h, w, pool->kernel(), pool->stride(),
                             "quantizer avgpool");
      QAvgPool q;
      q.in_h = h;
      q.in_w = w;
      q.channels = c;
      q.kernel = pool->kernel();
      q.stride = pool->stride();
      h = q.out_h();
      w = q.out_w();
      qm.layers.emplace_back(q);
    } else if (dynamic_cast<AddLayer*>(layer) != nullptr) {
      // Residual merge: requantize both operands to the common output
      // scale (out = clamp(rq_a(a - za) + rq_b(b - zb) + zo)).
      const int from = specs[li].from;
      const int b_tensor =
          from < 0 ? 0 : spec_tensor[static_cast<size_t>(from)];
      const QuantParams b_params =
          from < 0 ? qm.input : spec_params[static_cast<size_t>(from)];
      QAdd q;
      q.h = h;
      q.w = w;
      q.channels = c;
      q.in_a = act;
      q.in_b = b_params;
      q.out = out_obs.to_affine_params();
      q.requant_a = quantize_multiplier(static_cast<double>(q.in_a.scale) /
                                        q.out.scale);
      q.requant_b = quantize_multiplier(static_cast<double>(q.in_b.scale) /
                                        q.out.scale);
      q.act_min = relu_next ? q.out.zero_point : -128;
      q.act_max = 127;
      act = q.out;
      layer_inputs.push_back({top, b_tensor});
      has_add = true;
      qm.layers.emplace_back(std::move(q));
    }
    // ReLU layers are folded; nothing is emitted for them.
    // Chain row for whatever layer this spec emitted (the QAdd branch
    // already pushed its two-input row).
    if (layer_inputs.size() < qm.layers.size()) layer_inputs.push_back({top});
    spec_tensor[li] = static_cast<int>(qm.layers.size());
    spec_params[li] = act;
  }
  if (has_add) {
    qm.layer_inputs = std::move(layer_inputs);
    qm.validate_dag();
  }
  return qm;
}

}  // namespace ataman
