#include "src/unpack/unpacked_layer.hpp"

#include <algorithm>

#include "src/common/error.hpp"
#include "src/common/math_util.hpp"
#include "src/cmsisnn/packed_kernels.hpp"  // kBatchLanes, Q15Scratch
#include "src/cmsisnn/smlad.hpp"

namespace ataman {

int64_t UnpackedConv::static_pairs() const {
  int64_t total = 0;
  for (const ChannelProgram& ch : channels)
    total += static_cast<int64_t>(ch.pairs.size());
  return total;
}

int64_t UnpackedConv::static_singles() const {
  int64_t total = 0;
  for (const ChannelProgram& ch : channels) total += ch.has_single ? 1 : 0;
  return total;
}

int64_t UnpackedConv::retained_macs() const {
  int64_t static_ops = 0;
  for (const ChannelProgram& ch : channels) static_ops += ch.retained_ops();
  return static_ops * geom.positions();
}

namespace {

// Offline re-pairing shared by conv and depthwise program construction:
// collect retained operand indices, then emit one SMLAD per surviving
// pair and an SMLABB for the odd leftover. `weight_at(i)` maps an
// operand index into the layer's weight tensor.
template <typename WeightAt>
ChannelProgram build_channel_program(int32_t bias, int patch,
                                     const uint8_t* sk, WeightAt weight_at) {
  ChannelProgram prog;
  prog.bias = bias;
  std::vector<uint32_t> retained;
  retained.reserve(static_cast<size_t>(patch));
  for (int i = 0; i < patch; ++i) {
    if (sk == nullptr || !sk[i]) retained.push_back(static_cast<uint32_t>(i));
  }
  const size_t n_pairs = retained.size() / 2;
  prog.pairs.reserve(n_pairs);
  for (size_t p = 0; p < n_pairs; ++p) {
    const uint32_t ia = retained[2 * p];
    const uint32_t ib = retained[2 * p + 1];
    prog.pairs.push_back(
        {pack_weight_pair(/*hi=*/weight_at(ib), /*lo=*/weight_at(ia)), ia,
         ib});
  }
  if (retained.size() % 2 != 0) {
    prog.has_single = true;
    prog.single = {static_cast<int16_t>(weight_at(retained.back())),
                   retained.back()};
  }
  return prog;
}

}  // namespace

UnpackedConv UnpackedConv::build(const QConv2D& layer, const uint8_t* skip) {
  UnpackedConv u;
  u.geom = layer.geom;
  u.in_q = layer.in;
  u.out_q = layer.out;
  u.act_min = layer.act_min;
  u.act_max = layer.act_max;

  const int patch = layer.geom.patch_size();
  u.channels.resize(static_cast<size_t>(layer.geom.out_c));
  for (int oc = 0; oc < layer.geom.out_c; ++oc) {
    const int8_t* w =
        layer.weights.data() + static_cast<size_t>(oc) * patch;
    const uint8_t* sk =
        skip != nullptr ? skip + static_cast<size_t>(oc) * patch : nullptr;
    ChannelProgram& prog = u.channels[static_cast<size_t>(oc)];
    prog = build_channel_program(layer.bias[static_cast<size_t>(oc)], patch,
                                 sk, [&](uint32_t i) { return w[i]; });
    // Per-output-channel requant constant, baked like the bias.
    prog.requant = layer.requant[static_cast<size_t>(oc)];
  }
  return u;
}

template <int Lanes>
void UnpackedConv::run_lanes(std::span<const int8_t> in,
                              std::span<int8_t> out, int batch,
                              std::span<int16_t> scratch,
                              ColumnRange range) const {
  check(batch >= 1, "UnpackedConv::run: batch must be >= 1");
  const size_t in_elems =
      static_cast<size_t>(geom.in_h) * geom.in_w * geom.in_c;
  const size_t out_elems =
      static_cast<size_t>(geom.positions()) * geom.out_c;
  check(in.size() == in_elems * static_cast<size_t>(batch),
        "unpacked conv batched input size mismatch");
  check(out.size() == out_elems * static_cast<size_t>(batch),
        "unpacked conv batched output size mismatch");

  const int oh = geom.out_h(), ow = geom.out_w();
  const int ox_end = range.end_within(ow);
  const size_t patch = static_cast<size_t>(geom.patch_size());
  const int32_t zp = in_q.zero_point;

  // The host interpreter materializes the zero-point-corrected patch once
  // per position purely as a host-speed optimization; the *priced*
  // instruction stream (cost_model::unpacked_conv_cycles) models direct
  // activation loads with no such buffer, and the numerics are identical.
  // Lane-major column blocks (cols[j * patch + operand]): each program's
  // hardwired weight constant is fetched once and multiplied into
  // `Lanes` accumulators. Lane loops run all `Lanes` lanes at a
  // constant trip count; ragged tails compute over the zero-filled
  // padding lanes and discard them (SMLAD wraparound is defined).
  const Q15Scratch cols(scratch, static_cast<size_t>(Lanes) * patch);
  for (int b0 = 0; b0 < batch; b0 += Lanes) {
    const int bn = std::min(Lanes, batch - b0);
    if (bn < Lanes) cols.zero();
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = range.begin; ox < ox_end; ++ox) {
        for (int j = 0; j < bn; ++j) {
          const int8_t* img =
              in.data() + static_cast<size_t>(b0 + j) * in_elems;
          int16_t* lane = cols.data() + static_cast<size_t>(j) * patch;
          int idx = 0;
          for (int ky = 0; ky < geom.kernel; ++ky) {
            const int iy = oy * geom.stride - geom.pad + ky;
            for (int kx = 0; kx < geom.kernel; ++kx) {
              const int ix = ox * geom.stride - geom.pad + kx;
              const bool inside =
                  iy >= 0 && iy < geom.in_h && ix >= 0 && ix < geom.in_w;
              const int8_t* src =
                  inside ? img + (static_cast<size_t>(iy) * geom.in_w + ix) *
                                     geom.in_c
                         : nullptr;
              for (int c = 0; c < geom.in_c; ++c, ++idx)
                lane[idx] =
                    static_cast<int16_t>((inside ? src[c] : zp) - zp);
            }
          }
        }
        const size_t orow_off =
            (static_cast<size_t>(oy) * ow + ox) * geom.out_c;
        for (int oc = 0; oc < geom.out_c; ++oc) {
          const ChannelProgram& prog = channels[static_cast<size_t>(oc)];
          int32_t acc[Lanes];
          for (int j = 0; j < Lanes; ++j) acc[j] = prog.bias;
          for (const MacPairOp& op : prog.pairs) {
            for (int j = 0; j < Lanes; ++j) {
              const int16_t* lane =
                  cols.data() + static_cast<size_t>(j) * patch;
              acc[j] = smlad(op.weight_const,
                             pack_q15_pair(lane[op.operand_b],
                                           lane[op.operand_a]),
                             acc[j]);
            }
          }
          if (prog.has_single) {
            const uint32_t wlast = pack_q15_pair(0, prog.single.weight);
            for (int j = 0; j < Lanes; ++j) {
              const int16_t* lane =
                  cols.data() + static_cast<size_t>(j) * patch;
              acc[j] = smlabb(
                  wlast, pack_q15_pair(0, lane[prog.single.operand]), acc[j]);
            }
          }
          for (int j = 0; j < bn; ++j) {
            const int32_t scaled =
                multiply_by_quantized_multiplier(acc[j], prog.requant) +
                out_q.zero_point;
            out[static_cast<size_t>(b0 + j) * out_elems + orow_off + oc] =
                static_cast<int8_t>(std::clamp(scaled, act_min, act_max));
          }
        }
      }
    }
  }
}

void UnpackedConv::run(std::span<const int8_t> in, std::span<int8_t> out,
                       int batch, std::span<int16_t> scratch,
                       ColumnRange range) const {
  if (batch == 1) return run_lanes<1>(in, out, 1, scratch, range);
  run_lanes<kBatchLanes>(in, out, batch, scratch, range);
}

int64_t UnpackedDepthwise::static_pairs() const {
  int64_t total = 0;
  for (const ChannelProgram& ch : channels)
    total += static_cast<int64_t>(ch.pairs.size());
  return total;
}

int64_t UnpackedDepthwise::static_singles() const {
  int64_t total = 0;
  for (const ChannelProgram& ch : channels) total += ch.has_single ? 1 : 0;
  return total;
}

int64_t UnpackedDepthwise::retained_macs() const {
  int64_t static_ops = 0;
  for (const ChannelProgram& ch : channels) static_ops += ch.retained_ops();
  return static_ops * positions();
}

UnpackedDepthwise UnpackedDepthwise::build(const QDepthwiseConv2D& layer,
                                           const uint8_t* skip) {
  UnpackedDepthwise u;
  u.in_h = layer.in_h;
  u.in_w = layer.in_w;
  u.channel_count = layer.channels;
  u.kernel = layer.kernel;
  u.stride = layer.stride;
  u.pad = layer.pad;
  u.in_q = layer.in;
  u.out_q = layer.out;
  u.act_min = layer.act_min;
  u.act_max = layer.act_max;

  const int patch = layer.patch_size();
  u.channels.resize(static_cast<size_t>(layer.channels));
  for (int ch = 0; ch < layer.channels; ++ch) {
    const uint8_t* sk =
        skip != nullptr ? skip + static_cast<size_t>(ch) * patch : nullptr;
    ChannelProgram& prog = u.channels[static_cast<size_t>(ch)];
    prog = build_channel_program(
        layer.bias[static_cast<size_t>(ch)], patch, sk, [&](uint32_t p) {
          return layer.weights[dw_weight_index(ch, static_cast<int>(p),
                                               layer.channels)];
        });
    prog.requant = layer.requant[static_cast<size_t>(ch)];
  }
  return u;
}

template <int Lanes>
void UnpackedDepthwise::run_lanes(std::span<const int8_t> in,
                              std::span<int8_t> out, int batch,
                              std::span<int16_t> scratch,
                              ColumnRange range) const {
  check(batch >= 1, "UnpackedDepthwise::run: batch must be >= 1");
  const int c = channel_count;
  const size_t in_elems = static_cast<size_t>(in_h) * in_w * c;
  const size_t out_elems = static_cast<size_t>(positions()) * c;
  check(in.size() == in_elems * static_cast<size_t>(batch),
        "unpacked depthwise batched input size mismatch");
  check(out.size() == out_elems * static_cast<size_t>(batch),
        "unpacked depthwise batched output size mismatch");

  const int oh = out_h(), ow = out_w();
  const int ox_end = range.end_within(ow);
  const int patch = kernel * kernel;
  const int32_t zp = in_q.zero_point;
  const size_t lane_stride = static_cast<size_t>(patch) * c;

  // cols[j * patch * c + tap * c + ch]: shared zero-point-corrected
  // expansion per position and lane (the priced instruction stream models
  // direct loads, as for conv); each channel program then streams once
  // across all lanes.
  const Q15Scratch cols(scratch,
                        static_cast<size_t>(Lanes) * lane_stride);
  for (int b0 = 0; b0 < batch; b0 += Lanes) {
    const int bn = std::min(Lanes, batch - b0);
    if (bn < Lanes) cols.zero();
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = range.begin; ox < ox_end; ++ox) {
        for (int j = 0; j < bn; ++j) {
          const int8_t* img =
              in.data() + static_cast<size_t>(b0 + j) * in_elems;
          int16_t* lane = cols.data() + static_cast<size_t>(j) * lane_stride;
          int p = 0;
          for (int ky = 0; ky < kernel; ++ky) {
            const int iy = oy * stride - pad + ky;
            for (int kx = 0; kx < kernel; ++kx, ++p) {
              const int ix = ox * stride - pad + kx;
              const bool inside =
                  iy >= 0 && iy < in_h && ix >= 0 && ix < in_w;
              const int8_t* src =
                  inside ? img + (static_cast<size_t>(iy) * in_w + ix) * c
                         : nullptr;
              int16_t* dst = lane + static_cast<size_t>(p) * c;
              for (int i = 0; i < c; ++i)
                dst[i] = static_cast<int16_t>((inside ? src[i] : zp) - zp);
            }
          }
        }
        const size_t orow_off = (static_cast<size_t>(oy) * ow + ox) * c;
        for (int ch = 0; ch < c; ++ch) {
          const ChannelProgram& prog = channels[static_cast<size_t>(ch)];
          int32_t acc[Lanes];
          for (int j = 0; j < Lanes; ++j) acc[j] = prog.bias;
          for (const MacPairOp& op : prog.pairs) {
            const size_t off_a =
                static_cast<size_t>(op.operand_a) * c + ch;
            const size_t off_b =
                static_cast<size_t>(op.operand_b) * c + ch;
            for (int j = 0; j < Lanes; ++j) {
              const int16_t* lane =
                  cols.data() + static_cast<size_t>(j) * lane_stride;
              acc[j] = smlad(op.weight_const,
                             pack_q15_pair(lane[off_b], lane[off_a]),
                             acc[j]);
            }
          }
          if (prog.has_single) {
            const uint32_t wlast = pack_q15_pair(0, prog.single.weight);
            const size_t off =
                static_cast<size_t>(prog.single.operand) * c + ch;
            for (int j = 0; j < Lanes; ++j) {
              const int16_t* lane =
                  cols.data() + static_cast<size_t>(j) * lane_stride;
              acc[j] = smlabb(wlast, pack_q15_pair(0, lane[off]), acc[j]);
            }
          }
          for (int j = 0; j < bn; ++j) {
            const int32_t scaled =
                multiply_by_quantized_multiplier(acc[j], prog.requant) +
                out_q.zero_point;
            out[static_cast<size_t>(b0 + j) * out_elems + orow_off + ch] =
                static_cast<int8_t>(std::clamp(scaled, act_min, act_max));
          }
        }
      }
    }
  }
}

void UnpackedDepthwise::run(std::span<const int8_t> in, std::span<int8_t> out,
                       int batch, std::span<int16_t> scratch,
                       ColumnRange range) const {
  if (batch == 1) return run_lanes<1>(in, out, 1, scratch, range);
  run_lanes<kBatchLanes>(in, out, batch, scratch, range);
}

}  // namespace ataman
