// Quantized model representation.
//
// Scheme (TFLite-Micro / CMSIS-NN int8 convention):
//   * activations: asymmetric per-tensor  real = scale * (q - zero_point)
//   * weights:     symmetric, per-output-channel for conv/depthwise
//     (real = w_scales[c] * q), per-tensor for dense (real = w_scale * q)
//   * bias:        int32 at scale in_scale * w_scale(s)[c], zero_point 0
//   * accumulators: int32; rescaled to the output tensor with a
//     fixed-point multiplier per output channel (see common/fixed_point.hpp)
//   * ReLU is folded into the conv/fc output clamp (act_min/act_max)
//
// Layer weight layout is [out_c][kernel][kernel][in_c] for conv,
// [kernel][kernel][channels] (channel innermost, the TFLite-Micro
// depthwise convention) for depthwise conv, and [out][in] for
// fully-connected — identical to the float substrate and to the operand
// indexing used by the significance analysis and codegen.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "src/common/fixed_point.hpp"
#include "src/train/im2col.hpp"

namespace ataman {

// Per-tensor affine quantization parameters.
struct QuantParams {
  float scale = 1.0f;
  int32_t zero_point = 0;

  int8_t quantize(float real) const;
  float dequantize(int8_t q) const;
};

// Output columns [begin, end) a conv/depthwise kernel computes; the other
// columns of `out` are left untouched. The default is every column (the
// streaming walker recomputes only a frame's halo columns through it).
struct ColumnRange {
  int begin = 0;
  int end = std::numeric_limits<int>::max();

  int end_within(int out_w) const { return std::min(end, out_w); }
};

struct QConv2D {
  ConvGeom geom;
  std::vector<int8_t> weights;  // [out_c][k][k][in_c]
  std::vector<int32_t> bias;    // [out_c], scale = in.scale * w_scales[c]
  QuantParams in, out;
  // Per-output-channel symmetric weight scales and the matching requant
  // multipliers (size out_c each). Per-tensor quantization is the
  // degenerate all-equal case — see set_pertensor_wscale().
  std::vector<float> w_scales;
  std::vector<QuantizedMultiplier> requant;
  int32_t act_min = -128;  // output clamp (ReLU folding raises act_min)
  int32_t act_max = 127;
};

struct QDense {
  int in_dim = 0, out_dim = 0;
  std::vector<int8_t> weights;  // [out][in]
  std::vector<int32_t> bias;
  QuantParams in, out;
  float w_scale = 1.0f;
  QuantizedMultiplier requant;
  int32_t act_min = -128;
  int32_t act_max = 127;

  int64_t macs() const {
    return static_cast<int64_t>(in_dim) * out_dim;
  }
};

struct QMaxPool {
  int in_h = 0, in_w = 0, channels = 0;
  int kernel = 2, stride = 2;

  int out_h() const { return conv_out_extent(in_h, kernel, stride, 0); }
  int out_w() const { return conv_out_extent(in_w, kernel, stride, 0); }
};

// Depthwise convolution: channel c of the output reads only channel c of
// the input — the TinyML efficiency primitive (MobileNet/DS-CNN blocks).
// Weights are [kernel][kernel][channels] with the channel innermost
// (TFLite-Micro layout); the *skip-mask operand index* for channel c is
// the (ky*kernel + kx)-flattened tap position p in [0, kernel²), so a
// skipped static operand is the (layer, channel, p) triple and
// dw_weight_index() maps it into the weight tensor.
struct QDepthwiseConv2D {
  int in_h = 0, in_w = 0, channels = 0;
  int kernel = 1, stride = 1, pad = 0;
  std::vector<int8_t> weights;  // [k][k][channels], channel innermost
  std::vector<int32_t> bias;    // [channels], scale = in.scale * w_scales[c]
  QuantParams in, out;
  // Per-channel weight scales + requant multipliers (size `channels`).
  std::vector<float> w_scales;
  std::vector<QuantizedMultiplier> requant;
  int32_t act_min = -128;
  int32_t act_max = 127;

  int out_h() const { return conv_out_extent(in_h, kernel, stride, pad); }
  int out_w() const { return conv_out_extent(in_w, kernel, stride, pad); }
  int patch_size() const { return kernel * kernel; }  // taps per channel
  int positions() const { return out_h() * out_w(); }
  int64_t macs() const {
    return static_cast<int64_t>(positions()) * channels * patch_size();
  }
  int64_t weight_count() const {
    return static_cast<int64_t>(channels) * patch_size();
  }
  // The receptive field as a conv geometry with in_c = out_c = channels:
  // its q15 expansion holds channel ch of tap t at operand
  // t * channels + ch, the same offset as the tap's weight (the host
  // kernels read that operand from the geometry's PlanarLayout copy).
  ConvGeom expansion_geom() const {
    return {in_h, in_w, channels, channels, kernel, stride, pad};
  }
};

// Weight-tensor index of (channel, tap) under the [k][k][c] layout. The
// skip mask, significance S[] and channel programs all index operands as
// channel * patch_size + tap; this is the one conversion point.
inline size_t dw_weight_index(int channel, int tap, int channels) {
  return static_cast<size_t>(tap) * channels + channel;
}

// Per-channel requant maintenance. refresh_requant() recomputes
// requant[c] = in.scale * w_scales[c] / out.scale for every channel (call
// after changing in/out activation params or the scale vector);
// set_pertensor_wscale() broadcasts one shared scale to all channels and
// refreshes — the per-tensor special case used by legacy artifact loads,
// test fixtures and the per-channel-off ablation mode. Broadcast vectors
// are bitwise-identical in effect to the historical scalar scheme.
void refresh_requant(QConv2D& conv);
void refresh_requant(QDepthwiseConv2D& dw);
void set_pertensor_wscale(QConv2D& conv, float w_scale);
void set_pertensor_wscale(QDepthwiseConv2D& dw, float w_scale);

// Int8 average pool: sum over the window, round-half-away-from-zero
// divide (the TFLite-Micro AVERAGE_POOL_2D reference op). Input and
// output share quantization parameters, so no requant state is needed.
struct QAvgPool {
  int in_h = 0, in_w = 0, channels = 0;
  int kernel = 2, stride = 2;

  int out_h() const { return conv_out_extent(in_h, kernel, stride, 0); }
  int out_w() const { return conv_out_extent(in_w, kernel, stride, 0); }
};

// Two-input residual add (the MobileNetV2 / MicroNets block join).
// Both inputs have identical shape; each is requantized to the output
// scale independently before the integer add:
//   out = clamp(mbqm(qa - za, requant_a) + mbqm(qb - zb, requant_b) + zo)
// where requant_x encodes in_x.scale / out.scale (quantize_multiplier
// handles ratios above 1). No weights, no MACs — a pure activation op,
// and the first operator whose layer reads a tensor other than its
// chain predecessor (see QModel::layer_inputs).
struct QAdd {
  int h = 0, w = 0, channels = 0;
  QuantParams in_a, in_b, out;
  QuantizedMultiplier requant_a, requant_b;
  int32_t act_min = -128;
  int32_t act_max = 127;

  int64_t elems() const { return static_cast<int64_t>(h) * w * channels; }
};

using QLayer = std::variant<QConv2D, QMaxPool, QDense, QDepthwiseConv2D,
                            QAvgPool, QAdd>;

// ---------------------------------------------------------------------------
// Per-operator descriptor — the one contract every layer-generic consumer
// (significance, skip masks, DSE, codegen, cost/memory models) reads
// instead of re-implementing per-variant switches. A new operator is one
// `describe_layer` case + kernels, not ten parallel edits; see
// docs/ARCHITECTURE.md "Operator contract".
// ---------------------------------------------------------------------------

enum class OpKind { kConv, kMaxPool, kDense, kDepthwise, kAvgPool, kAdd };

struct OpDescriptor {
  OpKind kind = OpKind::kConv;
  int64_t in_elems = 0;   // activation tensor sizes (int8 elements)
  int64_t out_elems = 0;
  int64_t macs = 0;       // multiply-accumulates per inference
  // Approximable (skippable) operators only — conv and depthwise:
  bool skippable = false;
  int channels = 0;       // per-channel programs (conv: out_c)
  int patch = 0;          // skippable operands per channel
  int64_t positions = 0;  // output spatial positions (1 for dense)
  int out_dim = 0;        // dense head width (0 otherwise)

  // Skip-mask length for this layer (0 when not skippable).
  int64_t skippable_operand_count() const {
    return skippable ? static_cast<int64_t>(channels) * patch : 0;
  }
};

OpDescriptor describe_layer(const QLayer& layer);

// What the model's output head means. kClassify heads pick
// argmax(logits) (ties -> lowest index); kScore heads reconstruct the
// input (autoencoder) and reduce to a scalar anomaly score — the mean
// squared error between the dequantized reconstruction and the
// dequantized quantized input — compared against `score_threshold`
// (score > threshold => anomalous, class 1). Engines, the evaluator,
// the serve runtime and the C emitter all branch on this one enum; see
// docs/ARCHITECTURE.md "Scored heads".
enum class TaskHead { kClassify = 0, kScore = 1 };

struct QModel {
  std::string name;      // architecture name ("lenet", ...)
  // Block notation: chains keep the paper form ("3-2-2"); residual
  // bodies are bracketed ("3-[r2]-2" = two inverted-residual blocks
  // between the stem and the head). Printed by DeployReport, benches
  // and ataman_cli.
  std::string topology;
  int in_h = 0, in_w = 0, in_c = 0;
  QuantParams input;     // quantization of the u8/255 input
  std::vector<QLayer> layers;

  // Output-head contract (serialized as an append-only trailer; older
  // artifacts load as kClassify). The threshold is calibrated against
  // reconstruction scores of normal training images at quantization
  // time for kScore models and is meaningless for kClassify.
  TaskHead head = TaskHead::kClassify;
  float score_threshold = 0.0f;

  // DAG edges. Tensor ids: tensor 0 is the network input, tensor l+1 is
  // the output of layer l. layer_inputs[l] lists the tensor ids layer l
  // reads, in operand order (QAdd: {a, b}; everything else: one entry).
  // Empty (the pre-DAG serialized default) means the pure chain — every
  // layer l reads {l}. Layers are stored in topological order, so every
  // input id of layer l is <= l.
  std::vector<std::vector<int>> layer_inputs;

  // Input tensor ids of layer l (resolves the empty-chain default).
  std::vector<int> inputs_of(int layer) const;
  // True when every layer reads exactly its chain predecessor.
  bool is_chain() const;
  // True iff the cut before layer l is *linear*: every layer j >= l
  // reads only tensors with id >= l, so tensor l alone carries the
  // whole frontier and run_from(l, ...) is well defined. Boundary 0 is
  // always linear.
  bool linear_boundary(int layer) const;
  // Deepest linear boundary <= layer — the *dominating* boundary the
  // DSE prefix cache resumes from (docs/DSE.md).
  int dominating_boundary(int layer) const;
  // Structural validation of layer_inputs (arity, topological order,
  // shape agreement); fails on malformed DAGs. Called by engines and
  // the loader.
  void validate_dag() const;

  int64_t mac_count() const;          // conv + depthwise + dense MACs
  // MACs of the approximable (conv + depthwise) layers — the Fig. 2
  // MAC-reduction normalization. Equals the historical conv-only count
  // on models without depthwise layers.
  int64_t approx_mac_count() const;
  int conv_layer_count() const;       // plain conv layers only
  // Approximable layers (conv + depthwise) — the ordinal space skip
  // masks, significance vectors and ApproxConfig::tau are indexed by.
  int approx_layer_count() const;
  // Index of the n-th approximable layer inside `layers`.
  int approx_layer_index(int n) const;
  int64_t weight_bytes() const;       // int8 weights + int32 biases

  // Size in int8 elements of tensor id t (0 = network input, t > 0 =
  // output of layer t-1).
  int64_t tensor_elems(int tensor) const;
};

}  // namespace ataman
