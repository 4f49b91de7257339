#include "src/quant/qtypes.hpp"

#include <cmath>

#include "src/common/error.hpp"
#include "src/common/math_util.hpp"

namespace ataman {

int8_t QuantParams::quantize(float real) const {
  check(scale > 0.0f, "quantization scale must be positive");
  const int32_t q = round_to_int32(real / scale) + zero_point;
  return saturate_int8(q);
}

float QuantParams::dequantize(int8_t q) const {
  return scale * static_cast<float>(static_cast<int32_t>(q) - zero_point);
}

void refresh_requant(QConv2D& conv) {
  check(static_cast<int>(conv.w_scales.size()) == conv.geom.out_c,
        "QConv2D::w_scales must have one entry per output channel");
  conv.requant.resize(conv.w_scales.size());
  for (size_t c = 0; c < conv.w_scales.size(); ++c) {
    conv.requant[c] = quantize_multiplier(static_cast<double>(conv.in.scale) *
                                          conv.w_scales[c] / conv.out.scale);
  }
}

void refresh_requant(QDepthwiseConv2D& dw) {
  check(static_cast<int>(dw.w_scales.size()) == dw.channels,
        "QDepthwiseConv2D::w_scales must have one entry per channel");
  dw.requant.resize(dw.w_scales.size());
  for (size_t c = 0; c < dw.w_scales.size(); ++c) {
    dw.requant[c] = quantize_multiplier(static_cast<double>(dw.in.scale) *
                                        dw.w_scales[c] / dw.out.scale);
  }
}

void set_pertensor_wscale(QConv2D& conv, float w_scale) {
  conv.w_scales.assign(static_cast<size_t>(conv.geom.out_c), w_scale);
  refresh_requant(conv);
}

void set_pertensor_wscale(QDepthwiseConv2D& dw, float w_scale) {
  dw.w_scales.assign(static_cast<size_t>(dw.channels), w_scale);
  refresh_requant(dw);
}

OpDescriptor describe_layer(const QLayer& layer) {
  OpDescriptor d;
  if (const auto* conv = std::get_if<QConv2D>(&layer)) {
    const ConvGeom& g = conv->geom;
    d.kind = OpKind::kConv;
    d.in_elems = static_cast<int64_t>(g.in_h) * g.in_w * g.in_c;
    d.out_elems = static_cast<int64_t>(g.positions()) * g.out_c;
    d.macs = g.macs();
    d.skippable = true;
    d.channels = g.out_c;
    d.patch = g.patch_size();
    d.positions = g.positions();
  } else if (const auto* dw = std::get_if<QDepthwiseConv2D>(&layer)) {
    d.kind = OpKind::kDepthwise;
    d.in_elems = static_cast<int64_t>(dw->in_h) * dw->in_w * dw->channels;
    d.out_elems = static_cast<int64_t>(dw->positions()) * dw->channels;
    d.macs = dw->macs();
    d.skippable = true;
    d.channels = dw->channels;
    d.patch = dw->patch_size();
    d.positions = dw->positions();
  } else if (const auto* pool = std::get_if<QMaxPool>(&layer)) {
    d.kind = OpKind::kMaxPool;
    d.in_elems = static_cast<int64_t>(pool->in_h) * pool->in_w *
                 pool->channels;
    d.out_elems = static_cast<int64_t>(pool->out_h()) * pool->out_w() *
                  pool->channels;
    d.positions = static_cast<int64_t>(pool->out_h()) * pool->out_w();
  } else if (const auto* pool = std::get_if<QAvgPool>(&layer)) {
    d.kind = OpKind::kAvgPool;
    d.in_elems = static_cast<int64_t>(pool->in_h) * pool->in_w *
                 pool->channels;
    d.out_elems = static_cast<int64_t>(pool->out_h()) * pool->out_w() *
                  pool->channels;
    d.positions = static_cast<int64_t>(pool->out_h()) * pool->out_w();
  } else if (const auto* fc = std::get_if<QDense>(&layer)) {
    d.kind = OpKind::kDense;
    d.in_elems = fc->in_dim;
    d.out_elems = fc->out_dim;
    d.macs = fc->macs();
    d.positions = 1;
    d.out_dim = fc->out_dim;
  } else if (const auto* add = std::get_if<QAdd>(&layer)) {
    d.kind = OpKind::kAdd;
    // in_elems is the size of *each* input tensor (both are equal-shape).
    d.in_elems = add->elems();
    d.out_elems = add->elems();
    d.positions = static_cast<int64_t>(add->h) * add->w;
  }
  return d;
}

std::vector<int> QModel::inputs_of(int layer) const {
  check(layer >= 0 && layer < static_cast<int>(layers.size()),
        "inputs_of: layer index out of range");
  if (layer_inputs.empty()) return {layer};  // pure chain
  return layer_inputs[static_cast<size_t>(layer)];
}

bool QModel::is_chain() const {
  if (layer_inputs.empty()) return true;
  for (size_t l = 0; l < layer_inputs.size(); ++l) {
    if (layer_inputs[l].size() != 1 ||
        layer_inputs[l][0] != static_cast<int>(l))
      return false;
  }
  return true;
}

bool QModel::linear_boundary(int layer) const {
  check(layer >= 0 && layer <= static_cast<int>(layers.size()),
        "linear_boundary: layer index out of range");
  if (layer_inputs.empty()) return true;  // every chain cut is linear
  for (int j = layer; j < static_cast<int>(layers.size()); ++j) {
    for (int t : inputs_of(j))
      if (t < layer) return false;
  }
  return true;
}

int QModel::dominating_boundary(int layer) const {
  for (int l = layer; l > 0; --l)
    if (linear_boundary(l)) return l;
  return 0;
}

void QModel::validate_dag() const {
  if (layer_inputs.empty()) return;  // chain default — always valid
  check(layer_inputs.size() == layers.size(),
        "layer_inputs must have one entry per layer");
  for (size_t l = 0; l < layers.size(); ++l) {
    const OpDescriptor d = describe_layer(layers[l]);
    const std::vector<int>& ins = layer_inputs[l];
    const size_t arity = d.kind == OpKind::kAdd ? 2 : 1;
    check(ins.size() == arity, "layer has wrong input arity for its kind");
    for (int t : ins) {
      check(t >= 0 && t <= static_cast<int>(l),
            "layer input must be an already-produced tensor id");
      check(tensor_elems(t) == d.in_elems,
            "layer input tensor shape mismatch");
    }
  }
}

int64_t QModel::tensor_elems(int tensor) const {
  check(tensor >= 0 && tensor <= static_cast<int>(layers.size()),
        "tensor id out of range");
  if (tensor == 0) return static_cast<int64_t>(in_h) * in_w * in_c;
  return describe_layer(layers[static_cast<size_t>(tensor - 1)]).out_elems;
}

int64_t QModel::mac_count() const {
  int64_t total = 0;
  for (const QLayer& layer : layers) total += describe_layer(layer).macs;
  return total;
}

int64_t QModel::approx_mac_count() const {
  int64_t total = 0;
  for (const QLayer& layer : layers) {
    const OpDescriptor d = describe_layer(layer);
    if (d.skippable) total += d.macs;
  }
  return total;
}

int QModel::conv_layer_count() const {
  int count = 0;
  for (const QLayer& layer : layers)
    if (std::holds_alternative<QConv2D>(layer)) ++count;
  return count;
}

int QModel::approx_layer_count() const {
  int count = 0;
  for (const QLayer& layer : layers)
    if (describe_layer(layer).skippable) ++count;
  return count;
}

int QModel::approx_layer_index(int n) const {
  int seen = 0;
  for (size_t i = 0; i < layers.size(); ++i) {
    if (describe_layer(layers[i]).skippable) {
      if (seen == n) return static_cast<int>(i);
      ++seen;
    }
  }
  fail("approximable layer ordinal out of range");
}

int64_t QModel::weight_bytes() const {
  int64_t total = 0;
  for (const QLayer& layer : layers) {
    if (const auto* conv = std::get_if<QConv2D>(&layer)) {
      total += static_cast<int64_t>(conv->weights.size()) +
               static_cast<int64_t>(conv->bias.size()) * 4;
    } else if (const auto* dw = std::get_if<QDepthwiseConv2D>(&layer)) {
      total += static_cast<int64_t>(dw->weights.size()) +
               static_cast<int64_t>(dw->bias.size()) * 4;
    } else if (const auto* fc = std::get_if<QDense>(&layer)) {
      total += static_cast<int64_t>(fc->weights.size()) +
               static_cast<int64_t>(fc->bias.size()) * 4;
    }
  }
  return total;
}

}  // namespace ataman
