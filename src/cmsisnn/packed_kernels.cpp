#include "src/cmsisnn/packed_kernels.hpp"

#include <algorithm>
#include <array>

#include "src/common/error.hpp"
#include "src/common/math_util.hpp"
#include "src/cmsisnn/im2col_q15.hpp"
#include "src/cmsisnn/smlad.hpp"

namespace ataman {

PackedWeights PackedWeights::pack(std::span<const int8_t> weights, int out_c,
                                  int patch) {
  check(static_cast<int64_t>(weights.size()) ==
            static_cast<int64_t>(out_c) * patch,
        "weight tensor size mismatch");
  PackedWeights p;
  p.patch = patch;
  p.out_c = out_c;
  p.pairs_per_chan = patch / 2;
  p.has_single = (patch % 2) != 0;
  p.pair_constants.resize(static_cast<size_t>(out_c) * p.pairs_per_chan);
  if (p.has_single) p.single_weights.resize(static_cast<size_t>(out_c));

  for (int oc = 0; oc < out_c; ++oc) {
    const int8_t* w = weights.data() + static_cast<size_t>(oc) * patch;
    for (int i = 0; i < p.pairs_per_chan; ++i) {
      // Even operand in the low lane, odd operand in the high lane; the
      // activation packer uses the same convention.
      p.pair_constants[static_cast<size_t>(oc) * p.pairs_per_chan + i] =
          pack_weight_pair(/*hi=*/w[2 * i + 1], /*lo=*/w[2 * i]);
    }
    if (p.has_single)
      p.single_weights[static_cast<size_t>(oc)] = w[patch - 1];
  }
  return p;
}

namespace {

// Dual-MAC dot product over a lane-block of q15 columns, in the reference
// kernel's accumulation order (int32 addition is exact, so order is moot
// anyway): every weight pair constant is loaded once and multiplied into
// all `Lanes` accumulators before the next pair streams in. The lane
// loops have constant trip counts (stale/padding lanes compute garbage
// that the caller never stores — SMLAD wraparound is defined), which is
// what lets the compiler keep the four accumulators in one vector
// register (the accumulators are locals, so no store through the weight
// stream's pointer can alias them).
template <int Lanes>
std::array<int32_t, Lanes> packed_dot_lanes(const PackedWeights& packed,
                                            int oc, const int16_t* cols,
                                            int32_t bias) {
  std::array<int32_t, Lanes> acc;
  acc.fill(bias);
  const uint32_t* wp = packed.pair_constants.data() +
                       static_cast<size_t>(oc) * packed.pairs_per_chan;
  const size_t patch = static_cast<size_t>(packed.patch);
  for (int i = 0; i < packed.pairs_per_chan; ++i) {
    const uint32_t w = wp[i];
    for (int j = 0; j < Lanes; ++j) {
      const int16_t* col = cols + static_cast<size_t>(j) * patch;
      acc[j] = smlad(w, pack_q15_pair(col[2 * i + 1], col[2 * i]), acc[j]);
    }
  }
  if (packed.has_single) {
    const uint32_t wlast = pack_q15_pair(
        0, packed.single_weights[static_cast<size_t>(oc)]);
    for (int j = 0; j < Lanes; ++j) {
      const int16_t* col = cols + static_cast<size_t>(j) * patch;
      acc[j] = smlabb(wlast, pack_q15_pair(0, col[packed.patch - 1]), acc[j]);
    }
  }
  return acc;
}

int32_t requant_clamp(int32_t acc, const QuantizedMultiplier& requant,
                      int32_t out_zp, int32_t act_min, int32_t act_max) {
  const int32_t scaled =
      multiply_by_quantized_multiplier(acc, requant) + out_zp;
  return std::clamp(scaled, act_min, act_max);
}

template <int Lanes>
void conv2d_lanes(const QConv2D& layer, const PackedWeights& packed,
                  std::span<const int8_t> in, std::span<int8_t> out,
                  int batch, std::span<int16_t> scratch, ColumnRange range) {
  const ConvGeom& g = layer.geom;
  check(packed.patch == g.patch_size() && packed.out_c == g.out_c,
        "packed weights do not match layer");
  check(batch >= 1, "packed_conv2d: batch must be >= 1");
  const size_t in_elems =
      static_cast<size_t>(g.in_h) * g.in_w * g.in_c;
  const int oh = g.out_h(), ow = g.out_w();
  const size_t out_elems = static_cast<size_t>(oh) * ow * g.out_c;
  check(in.size() == in_elems * static_cast<size_t>(batch),
        "batched conv input size mismatch");
  check(out.size() == out_elems * static_cast<size_t>(batch),
        "batched conv output size mismatch");
  const size_t patch = static_cast<size_t>(g.patch_size());
  const int ox_end = range.end_within(ow);

  const Q15Scratch cols(scratch, static_cast<size_t>(Lanes) * patch);
  for (int b0 = 0; b0 < batch; b0 += Lanes) {
    const int bn = std::min(Lanes, batch - b0);
    // Padding lanes of a ragged tail keep whatever the zero-fill leaves;
    // they are computed but never stored.
    if (bn < Lanes) cols.zero();
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = range.begin; ox < ox_end; ++ox) {
        for (int j = 0; j < bn; ++j) {
          im2col_patch_q15(
              g, layer.in.zero_point,
              in.subspan(static_cast<size_t>(b0 + j) * in_elems, in_elems),
              oy, ox, cols.data() + static_cast<size_t>(j) * patch);
        }
        const size_t orow_off =
            (static_cast<size_t>(oy) * ow + ox) * g.out_c;
        for (int oc = 0; oc < g.out_c; ++oc) {
          const auto acc = packed_dot_lanes<Lanes>(
              packed, oc, cols.data(), layer.bias[static_cast<size_t>(oc)]);
          for (int j = 0; j < bn; ++j) {
            out[static_cast<size_t>(b0 + j) * out_elems + orow_off + oc] =
                static_cast<int8_t>(requant_clamp(
                    acc[j], layer.requant[static_cast<size_t>(oc)],
                    layer.out.zero_point, layer.act_min, layer.act_max));
          }
        }
      }
    }
  }
}

template <int Lanes>
void depthwise_lanes(const QDepthwiseConv2D& layer,
                     std::span<const int8_t> in, std::span<int8_t> out,
                     int batch, std::span<int16_t> scratch, ColumnRange range) {
  check(batch >= 1, "packed_depthwise_conv2d: batch must be >= 1");
  const size_t in_elems =
      static_cast<size_t>(layer.in_h) * layer.in_w * layer.channels;
  const int oh = layer.out_h(), ow = layer.out_w(), c = layer.channels;
  const size_t out_elems =
      static_cast<size_t>(layer.positions()) * layer.channels;
  check(in.size() == in_elems * static_cast<size_t>(batch),
        "batched depthwise input size mismatch");
  check(out.size() == out_elems * static_cast<size_t>(batch),
        "batched depthwise output size mismatch");
  const int patch = layer.patch_size();
  const ConvGeom g = layer.expansion_geom();
  const size_t lane_stride = static_cast<size_t>(patch) * c;
  const int ox_end = range.end_within(ow);

  // Lane-major blocks of the q15 expansion of the receptive field, one
  // per position shared by all channels: cols[j * patch * c + tap * c +
  // ch] for image b0 + j, matching the [k][k][c] weight order. Each
  // filter weight is then loaded once per tap and multiplied into all
  // lanes.
  const Q15Scratch cols(scratch,
                        static_cast<size_t>(Lanes) * lane_stride);
  for (int b0 = 0; b0 < batch; b0 += Lanes) {
    const int bn = std::min(Lanes, batch - b0);
    if (bn < Lanes) cols.zero();
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = range.begin; ox < ox_end; ++ox) {
        for (int j = 0; j < bn; ++j) {
          im2col_patch_q15(
              g, layer.in.zero_point,
              in.subspan(static_cast<size_t>(b0 + j) * in_elems, in_elems),
              oy, ox, cols.data() + static_cast<size_t>(j) * lane_stride);
        }
        const size_t orow_off = (static_cast<size_t>(oy) * ow + ox) * c;
        for (int ch = 0; ch < c; ++ch) {
          int32_t acc[Lanes];
          for (int j = 0; j < Lanes; ++j)
            acc[j] = layer.bias[static_cast<size_t>(ch)];
          for (int t = 0; t < patch; ++t) {
            const int32_t w = layer.weights[static_cast<size_t>(t) * c + ch];
            const size_t tap_off = static_cast<size_t>(t) * c + ch;
            for (int j = 0; j < Lanes; ++j) {
              acc[j] += static_cast<int32_t>(
                            cols[static_cast<size_t>(j) * lane_stride +
                                 tap_off]) *
                        w;
            }
          }
          for (int j = 0; j < bn; ++j) {
            out[static_cast<size_t>(b0 + j) * out_elems + orow_off + ch] =
                static_cast<int8_t>(requant_clamp(
                    acc[j], layer.requant[static_cast<size_t>(ch)],
                    layer.out.zero_point, layer.act_min, layer.act_max));
          }
        }
      }
    }
  }
}

template <int Lanes>
void dense_lanes(const QDense& layer, const PackedWeights& packed,
                 std::span<const int8_t> in, std::span<int8_t> out, int batch,
                 std::span<int16_t> scratch) {
  check(packed.patch == layer.in_dim && packed.out_c == layer.out_dim,
        "packed weights do not match layer");
  check(batch >= 1, "packed_dense: batch must be >= 1");
  const size_t in_elems = static_cast<size_t>(layer.in_dim);
  const size_t out_elems = static_cast<size_t>(layer.out_dim);
  check(in.size() == in_elems * static_cast<size_t>(batch),
        "batched dense input size mismatch");
  check(out.size() == out_elems * static_cast<size_t>(batch),
        "batched dense output size mismatch");

  // Expand each input once to zero-point-corrected q15 (CMSIS expands the
  // activation vector for its q7 FC kernels the same way).
  const Q15Scratch cols(scratch, static_cast<size_t>(Lanes) * in_elems);
  for (int b0 = 0; b0 < batch; b0 += Lanes) {
    const int bn = std::min(Lanes, batch - b0);
    if (bn < Lanes) cols.zero();
    for (int j = 0; j < bn; ++j) {
      const int8_t* img = in.data() + static_cast<size_t>(b0 + j) * in_elems;
      int16_t* lane = cols.data() + static_cast<size_t>(j) * in_elems;
      for (size_t i = 0; i < in_elems; ++i) {
        lane[i] = static_cast<int16_t>(static_cast<int32_t>(img[i]) -
                                       layer.in.zero_point);
      }
    }
    for (int oc = 0; oc < layer.out_dim; ++oc) {
      const auto acc = packed_dot_lanes<Lanes>(
          packed, oc, cols.data(), layer.bias[static_cast<size_t>(oc)]);
      for (int j = 0; j < bn; ++j) {
        out[static_cast<size_t>(b0 + j) * out_elems + oc] =
            static_cast<int8_t>(requant_clamp(acc[j], layer.requant,
                                              layer.out.zero_point,
                                              layer.act_min, layer.act_max));
      }
    }
  }
}

}  // namespace

void packed_conv2d(const QConv2D& layer, const PackedWeights& packed,
                   std::span<const int8_t> in, std::span<int8_t> out,
                   int batch, std::span<int16_t> scratch, ColumnRange range) {
  if (batch == 1)
    return conv2d_lanes<1>(layer, packed, in, out, 1, scratch, range);
  conv2d_lanes<kBatchLanes>(layer, packed, in, out, batch, scratch, range);
}

void packed_depthwise_conv2d(const QDepthwiseConv2D& layer,
                             std::span<const int8_t> in, std::span<int8_t> out,
                             int batch, std::span<int16_t> scratch,
                             ColumnRange range) {
  if (batch == 1) return depthwise_lanes<1>(layer, in, out, 1, scratch, range);
  depthwise_lanes<kBatchLanes>(layer, in, out, batch, scratch, range);
}

void packed_dense(const QDense& layer, const PackedWeights& packed,
                  std::span<const int8_t> in, std::span<int8_t> out,
                  int batch, std::span<int16_t> scratch) {
  if (batch == 1) return dense_lanes<1>(layer, packed, in, out, 1, scratch);
  dense_lanes<kBatchLanes>(layer, packed, in, out, batch, scratch);
}

}  // namespace ataman
