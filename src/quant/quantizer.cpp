#include "src/quant/quantizer.hpp"

#include <cmath>
#include <numeric>

#include "src/common/math_util.hpp"
#include "src/common/serialize.hpp"
#include "src/quant/calibrate.hpp"

namespace ataman {

namespace {

constexpr const char* kQModelMagic = "ATAMAN.QMODEL";

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

void save_qmodel(const QModel& m, const std::string& path) {
  BinaryWriter w(path, kQModelMagic);
  w.str(m.name);
  w.str(m.topology);
  w.i32(m.in_h);
  w.i32(m.in_w);
  w.i32(m.in_c);
  w.f32(m.input.scale);
  w.i32(m.input.zero_point);
  w.u32(static_cast<uint32_t>(m.layers.size()));
  for (const QLayer& layer : m.layers) {
    if (const auto* conv = std::get_if<QConv2D>(&layer)) {
      w.u32(0);
      w.i32(conv->geom.in_h);
      w.i32(conv->geom.in_w);
      w.i32(conv->geom.in_c);
      w.i32(conv->geom.out_c);
      w.i32(conv->geom.kernel);
      w.i32(conv->geom.stride);
      w.i32(conv->geom.pad);
      w.vec(conv->weights);
      w.vec(conv->bias);
      w.f32(conv->in.scale);
      w.i32(conv->in.zero_point);
      w.f32(conv->out.scale);
      w.i32(conv->out.zero_point);
      // Legacy inline slots carry channel 0; the full per-channel vectors
      // live in the trailer (see below) so pre-PR-9 readers still parse.
      w.f32(conv->w_scales.at(0));
      w.i32(conv->requant.at(0).mult);
      w.i32(conv->requant.at(0).shift);
      w.i32(conv->act_min);
      w.i32(conv->act_max);
    } else if (const auto* pool = std::get_if<QMaxPool>(&layer)) {
      w.u32(1);
      w.i32(pool->in_h);
      w.i32(pool->in_w);
      w.i32(pool->channels);
      w.i32(pool->kernel);
      w.i32(pool->stride);
    } else if (const auto* fc = std::get_if<QDense>(&layer)) {
      w.u32(2);
      w.i32(fc->in_dim);
      w.i32(fc->out_dim);
      w.vec(fc->weights);
      w.vec(fc->bias);
      w.f32(fc->in.scale);
      w.i32(fc->in.zero_point);
      w.f32(fc->out.scale);
      w.i32(fc->out.zero_point);
      w.f32(fc->w_scale);
      w.i32(fc->requant.mult);
      w.i32(fc->requant.shift);
      w.i32(fc->act_min);
      w.i32(fc->act_max);
    } else if (const auto* dw = std::get_if<QDepthwiseConv2D>(&layer)) {
      w.u32(3);
      w.i32(dw->in_h);
      w.i32(dw->in_w);
      w.i32(dw->channels);
      w.i32(dw->kernel);
      w.i32(dw->stride);
      w.i32(dw->pad);
      w.vec(dw->weights);
      w.vec(dw->bias);
      w.f32(dw->in.scale);
      w.i32(dw->in.zero_point);
      w.f32(dw->out.scale);
      w.i32(dw->out.zero_point);
      w.f32(dw->w_scales.at(0));
      w.i32(dw->requant.at(0).mult);
      w.i32(dw->requant.at(0).shift);
      w.i32(dw->act_min);
      w.i32(dw->act_max);
    } else if (const auto* pool = std::get_if<QAvgPool>(&layer)) {
      w.u32(4);
      w.i32(pool->in_h);
      w.i32(pool->in_w);
      w.i32(pool->channels);
      w.i32(pool->kernel);
      w.i32(pool->stride);
    } else if (const auto* add = std::get_if<QAdd>(&layer)) {
      w.u32(5);
      w.i32(add->h);
      w.i32(add->w);
      w.i32(add->channels);
      w.f32(add->in_a.scale);
      w.i32(add->in_a.zero_point);
      w.f32(add->in_b.scale);
      w.i32(add->in_b.zero_point);
      w.f32(add->out.scale);
      w.i32(add->out.zero_point);
      w.i32(add->requant_a.mult);
      w.i32(add->requant_a.shift);
      w.i32(add->requant_b.mult);
      w.i32(add->requant_b.shift);
      w.i32(add->act_min);
      w.i32(add->act_max);
    }
  }
  // DAG trailer: per-layer input tensor ids (row count 0 = pure chain).
  // Readers that predate the trailer never reach it on chain files they
  // understand; the loader treats a missing trailer as a chain.
  w.u32(static_cast<uint32_t>(m.layer_inputs.size()));
  for (const std::vector<int>& row : m.layer_inputs) {
    w.u32(static_cast<uint32_t>(row.size()));
    for (const int t : row) w.i32(t);
  }
  // Head trailer (appended after the DAG trailer, same compatibility
  // scheme): absent means the pre-scored default, an argmax head.
  w.u32(static_cast<uint32_t>(m.head));
  w.f32(m.score_threshold);
  // Per-channel requant trailer (append-only versioning, PR 9): one row
  // per conv/depthwise layer in stored order — u32 channel count, then
  // (f32 scale, i32 mult, i32 shift) per channel. Absent (pre-PR-9
  // artifacts) means the inline per-tensor scalars broadcast.
  uint32_t pc_rows = 0;
  for (const QLayer& layer : m.layers)
    if (std::holds_alternative<QConv2D>(layer) ||
        std::holds_alternative<QDepthwiseConv2D>(layer))
      ++pc_rows;
  w.u32(pc_rows);
  for (const QLayer& layer : m.layers) {
    const std::vector<float>* scales = nullptr;
    const std::vector<QuantizedMultiplier>* rq = nullptr;
    if (const auto* conv = std::get_if<QConv2D>(&layer)) {
      scales = &conv->w_scales;
      rq = &conv->requant;
    } else if (const auto* dw = std::get_if<QDepthwiseConv2D>(&layer)) {
      scales = &dw->w_scales;
      rq = &dw->requant;
    }
    if (scales == nullptr) continue;
    check(scales->size() == rq->size(),
          "w_scales / requant length mismatch while saving " + m.name);
    w.u32(static_cast<uint32_t>(scales->size()));
    for (size_t c = 0; c < scales->size(); ++c) {
      w.f32((*scales)[c]);
      w.i32((*rq)[c].mult);
      w.i32((*rq)[c].shift);
    }
  }
  w.close();
}

namespace {

// A weight or bias vector read from `path` must hold exactly the product
// of its layer's shape fields; a negative field or an overflowing
// product (a corrupt header) never matches.
void check_tensor_length(size_t length, std::initializer_list<int32_t> dims,
                         const char* what, const std::string& path) {
  int64_t want = 1;
  bool ok = true;
  for (const int32_t d : dims)
    ok = ok && d >= 0 && !__builtin_mul_overflow(want, int64_t{d}, &want);
  check(ok && static_cast<uint64_t>(want) == length,
        std::string(what) + " length does not match its layer in " + path);
}

// A conv or pool window with a kernel or stride below 1 has no output
// extent (conv_out_extent divides by the stride).
void check_window(int32_t kernel, int32_t stride, const char* what,
                  const std::string& path) {
  check(kernel >= 1 && stride >= 1,
        std::string(what) + " kernel and stride must be >= 1 in " + path);
}

}  // namespace

QModel load_qmodel(const std::string& path) {
  BinaryReader r(path, kQModelMagic);
  QModel m;
  m.name = r.str();
  m.topology = r.str();
  m.in_h = r.i32();
  m.in_w = r.i32();
  m.in_c = r.i32();
  m.input.scale = r.f32();
  m.input.zero_point = r.i32();
  const uint32_t n = r.u32();
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t kind = r.u32();
    if (kind == 0) {
      QConv2D conv;
      conv.geom.in_h = r.i32();
      conv.geom.in_w = r.i32();
      conv.geom.in_c = r.i32();
      conv.geom.out_c = r.i32();
      conv.geom.kernel = r.i32();
      conv.geom.stride = r.i32();
      conv.geom.pad = r.i32();
      conv.weights = r.vec<int8_t>();
      conv.bias = r.vec<int32_t>();
      const ConvGeom& g = conv.geom;
      check_window(g.kernel, g.stride, "conv", path);
      check_tensor_length(conv.weights.size(),
                          {g.out_c, g.kernel, g.kernel, g.in_c},
                          "conv weight", path);
      check_tensor_length(conv.bias.size(), {g.out_c}, "conv bias", path);
      conv.in.scale = r.f32();
      conv.in.zero_point = r.i32();
      conv.out.scale = r.f32();
      conv.out.zero_point = r.i32();
      // Inline per-tensor scalars broadcast across channels; the
      // per-channel trailer (when present) overrides them below. The
      // stored multiplier is reused verbatim — never recomputed — so
      // pre-PR-9 artifacts stay bitwise-identical.
      const float w_scale = r.f32();
      QuantizedMultiplier rq;
      rq.mult = r.i32();
      rq.shift = r.i32();
      conv.w_scales.assign(static_cast<size_t>(conv.geom.out_c), w_scale);
      conv.requant.assign(static_cast<size_t>(conv.geom.out_c), rq);
      conv.act_min = r.i32();
      conv.act_max = r.i32();
      m.layers.emplace_back(std::move(conv));
    } else if (kind == 1) {
      QMaxPool pool;
      pool.in_h = r.i32();
      pool.in_w = r.i32();
      pool.channels = r.i32();
      pool.kernel = r.i32();
      pool.stride = r.i32();
      check_window(pool.kernel, pool.stride, "maxpool", path);
      m.layers.emplace_back(pool);
    } else if (kind == 2) {
      QDense fc;
      fc.in_dim = r.i32();
      fc.out_dim = r.i32();
      fc.weights = r.vec<int8_t>();
      fc.bias = r.vec<int32_t>();
      check_tensor_length(fc.weights.size(), {fc.out_dim, fc.in_dim},
                          "dense weight", path);
      check_tensor_length(fc.bias.size(), {fc.out_dim}, "dense bias", path);
      fc.in.scale = r.f32();
      fc.in.zero_point = r.i32();
      fc.out.scale = r.f32();
      fc.out.zero_point = r.i32();
      fc.w_scale = r.f32();
      fc.requant.mult = r.i32();
      fc.requant.shift = r.i32();
      fc.act_min = r.i32();
      fc.act_max = r.i32();
      m.layers.emplace_back(std::move(fc));
    } else if (kind == 3) {
      QDepthwiseConv2D dw;
      dw.in_h = r.i32();
      dw.in_w = r.i32();
      dw.channels = r.i32();
      dw.kernel = r.i32();
      dw.stride = r.i32();
      dw.pad = r.i32();
      dw.weights = r.vec<int8_t>();
      dw.bias = r.vec<int32_t>();
      check_window(dw.kernel, dw.stride, "depthwise", path);
      check_tensor_length(dw.weights.size(),
                          {dw.kernel, dw.kernel, dw.channels},
                          "depthwise weight", path);
      check_tensor_length(dw.bias.size(), {dw.channels}, "depthwise bias",
                          path);
      dw.in.scale = r.f32();
      dw.in.zero_point = r.i32();
      dw.out.scale = r.f32();
      dw.out.zero_point = r.i32();
      const float w_scale = r.f32();
      QuantizedMultiplier rq;
      rq.mult = r.i32();
      rq.shift = r.i32();
      dw.w_scales.assign(static_cast<size_t>(dw.channels), w_scale);
      dw.requant.assign(static_cast<size_t>(dw.channels), rq);
      dw.act_min = r.i32();
      dw.act_max = r.i32();
      m.layers.emplace_back(std::move(dw));
    } else if (kind == 4) {
      QAvgPool pool;
      pool.in_h = r.i32();
      pool.in_w = r.i32();
      pool.channels = r.i32();
      pool.kernel = r.i32();
      pool.stride = r.i32();
      check_window(pool.kernel, pool.stride, "avgpool", path);
      m.layers.emplace_back(pool);
    } else if (kind == 5) {
      QAdd add;
      add.h = r.i32();
      add.w = r.i32();
      add.channels = r.i32();
      add.in_a.scale = r.f32();
      add.in_a.zero_point = r.i32();
      add.in_b.scale = r.f32();
      add.in_b.zero_point = r.i32();
      add.out.scale = r.f32();
      add.out.zero_point = r.i32();
      add.requant_a.mult = r.i32();
      add.requant_a.shift = r.i32();
      add.requant_b.mult = r.i32();
      add.requant_b.shift = r.i32();
      add.act_min = r.i32();
      add.act_max = r.i32();
      m.layers.emplace_back(add);
    } else {
      fail("unknown layer kind in " + path);
    }
  }
  // DAG trailer (absent in pre-DAG artifacts: those are pure chains).
  if (!r.at_end()) {
    const uint32_t rows = r.u32();
    m.layer_inputs.resize(rows);
    for (uint32_t i = 0; i < rows; ++i) {
      const uint32_t len = r.u32();
      m.layer_inputs[i].resize(len);
      for (uint32_t k = 0; k < len; ++k) m.layer_inputs[i][k] = r.i32();
    }
    if (!m.layer_inputs.empty()) m.validate_dag();
  }
  if (!r.at_end()) {
    const uint32_t head = r.u32();
    check(head <= 1, "bad head tag in " + path);
    m.head = static_cast<TaskHead>(head);
    m.score_threshold = r.f32();
    // A scored head reconstructs the input through a final dense layer
    // (reconstruction_score).
    const auto* last =
        m.layers.empty() ? nullptr : std::get_if<QDense>(&m.layers.back());
    check(m.head != TaskHead::kScore ||
              (last != nullptr &&
               static_cast<int64_t>(last->out_dim) ==
                   static_cast<int64_t>(m.in_h) * m.in_w * m.in_c),
          "scored head needs a final dense layer as wide as the input in " +
              path);
  }
  // Per-channel requant trailer (absent in pre-PR-9 artifacts: the inline
  // broadcast above already holds).
  if (!r.at_end()) {
    uint32_t expect_rows = 0;
    for (const QLayer& layer : m.layers)
      if (std::holds_alternative<QConv2D>(layer) ||
          std::holds_alternative<QDepthwiseConv2D>(layer))
        ++expect_rows;
    const uint32_t rows = r.u32();
    check(rows == expect_rows, "per-channel trailer row count mismatch in " +
                                   path);
    for (QLayer& layer : m.layers) {
      std::vector<float>* scales = nullptr;
      std::vector<QuantizedMultiplier>* rq = nullptr;
      if (auto* conv = std::get_if<QConv2D>(&layer)) {
        scales = &conv->w_scales;
        rq = &conv->requant;
      } else if (auto* dw = std::get_if<QDepthwiseConv2D>(&layer)) {
        scales = &dw->w_scales;
        rq = &dw->requant;
      }
      if (scales == nullptr) continue;
      const uint32_t channels = r.u32();
      check(channels == scales->size(),
            "per-channel trailer channel count mismatch in " + path);
      for (uint32_t c = 0; c < channels; ++c) {
        (*scales)[c] = r.f32();
        (*rq)[c].mult = r.i32();
        (*rq)[c].shift = r.i32();
      }
    }
  }
  return m;
}

}  // namespace ataman
