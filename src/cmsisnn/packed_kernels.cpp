#include "src/cmsisnn/packed_kernels.hpp"

#include <algorithm>

#include "src/common/error.hpp"
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

void packed_conv2d(const QConv2D& layer, const PackedWeights& packed,
                   std::span<const int8_t> in, std::span<int8_t> out,
                   int batch, std::span<int16_t> scratch, ColumnRange range) {
  check(packed.patch == layer.geom.patch_size() &&
            packed.out_c == layer.geom.out_c,
        "packed weights do not match layer");
  const auto channel = [&](int oc, auto& block, const auto& store) {
    block.reset(layer.bias[static_cast<size_t>(oc)]);
    const uint32_t* wp = packed.pair_constants.data() +
                         static_cast<size_t>(oc) * packed.pairs_per_chan;
    for (int i = 0; i < packed.pairs_per_chan; ++i)
      block.mac(wp[i], 2 * static_cast<size_t>(i),
                2 * static_cast<size_t>(i) + 1);
    if (packed.has_single) {
      block.mac_single(packed.single_weights[static_cast<size_t>(oc)],
                       static_cast<size_t>(packed.patch - 1));
    }
    store(0, layer.requant[static_cast<size_t>(oc)]);
  };
  run_conv_blocks(layer.geom, layer.in.zero_point, layer.out.zero_point,
                  layer.act_min, layer.act_max, in,
                  std::span<const std::span<int8_t>>(&out, 1), batch, scratch,
                  range, channel);
}

void packed_depthwise_conv2d(const QDepthwiseConv2D& layer,
                             std::span<const int8_t> in, std::span<int8_t> out,
                             int batch, std::span<int16_t> scratch,
                             ColumnRange range) {
  const int taps = layer.patch_size();
  const size_t c = static_cast<size_t>(layer.channels);
  // Tap t of channel ch is operand (and weight) t * c + ch; two taps of
  // one channel share its accumulator, so they pair into one SMLAD.
  const auto channel = [&](int ch, auto& block, const auto& store) {
    block.reset(layer.bias[static_cast<size_t>(ch)]);
    const int8_t* w = layer.weights.data();
    size_t a = static_cast<size_t>(ch);
    int t = 0;
    for (; t + 1 < taps; t += 2, a += 2 * c)
      block.mac(pack_weight_pair(/*hi=*/w[a + c], /*lo=*/w[a]), a, a + c);
    if (t < taps) block.mac_single(w[a], a);
    store(0, layer.requant[static_cast<size_t>(ch)]);
  };
  run_conv_blocks(layer.expansion_geom(), layer.in.zero_point,
                  layer.out.zero_point, layer.act_min, layer.act_max, in,
                  std::span<const std::span<int8_t>>(&out, 1), batch, scratch,
                  range, channel);
}

void packed_dense(const QDense& layer, const PackedWeights& packed,
                  std::span<const int8_t> in, std::span<int8_t> out,
                  int batch, std::span<int16_t> scratch) {
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
  // activation vector for its q7 FC kernels the same way), kBatchLanes
  // images at a time.
  const Q15Scratch x(scratch,
                     static_cast<size_t>(std::min(batch, kBatchLanes)) *
                         in_elems);
  const size_t pairs = static_cast<size_t>(packed.pairs_per_chan);
  for (int b0 = 0; b0 < batch; b0 += kBatchLanes) {
    const int bn = std::min(kBatchLanes, batch - b0);
    const int16_t* lanes[kBatchLanes];
    for (int j = 0; j < kBatchLanes; ++j) {
      // A dead lane rereads the last live image's vector.
      lanes[j] = x.data() + static_cast<size_t>(std::min(j, bn - 1)) * in_elems;
      if (j >= bn) continue;
      const int8_t* img = in.data() + static_cast<size_t>(b0 + j) * in_elems;
      int16_t* xj = x.data() + static_cast<size_t>(j) * in_elems;
      for (size_t i = 0; i < in_elems; ++i) {
        xj[i] = static_cast<int16_t>(static_cast<int32_t>(img[i]) -
                                     layer.in.zero_point);
      }
    }
    for (int oc = 0; oc < layer.out_dim; ++oc) {
      const uint32_t* w =
          packed.pair_constants.data() + static_cast<size_t>(oc) * pairs;
      int32_t acc[kBatchLanes];
      std::fill_n(acc, kBatchLanes, layer.bias[static_cast<size_t>(oc)]);
      // A lone image takes the one-vector dot: no dead lane to compute.
      if (bn == 1) {
        acc[0] = smlad_dot(w, lanes[0], pairs, acc[0]);
      } else {
        smlad_dot_lanes(w, lanes, pairs, acc);
      }
      for (int j = 0; j < bn; ++j) {
        if (packed.has_single) {
          acc[j] = smlabb(
              pack_q15_pair(0, packed.single_weights[static_cast<size_t>(oc)]),
              pack_q15_pair(0, lanes[j][in_elems - 1]), acc[j]);
        }
        out[static_cast<size_t>(b0 + j) * out_elems +
            static_cast<size_t>(oc)] =
            requant_clamp(acc[j], layer.requant, layer.out.zero_point,
                          layer.act_min, layer.act_max);
      }
    }
  }
}

}  // namespace ataman
