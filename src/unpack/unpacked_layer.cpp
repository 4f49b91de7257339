#include "src/unpack/unpacked_layer.hpp"

#include <algorithm>

#include "src/common/error.hpp"
#include "src/common/math_util.hpp"
#include "src/cmsisnn/im2col_q15.hpp"
#include "src/cmsisnn/packed_kernels.hpp"  // kBatchLanes, Q15Scratch
#include "src/cmsisnn/smlad.hpp"

namespace ataman {

int64_t UnpackedLayer::static_pairs() const {
  int64_t total = 0;
  for (const ChannelProgram& ch : channels)
    total += static_cast<int64_t>(ch.pairs.size());
  return total;
}

int64_t UnpackedLayer::static_singles() const {
  int64_t total = 0;
  for (const ChannelProgram& ch : channels) total += ch.has_single ? 1 : 0;
  return total;
}

int64_t UnpackedLayer::retained_macs() const {
  int64_t static_ops = 0;
  for (const ChannelProgram& ch : channels) static_ops += ch.retained_ops();
  return static_ops * geom.positions();
}

namespace {

// Offline re-pairing over expansion geometry `g`: collect each channel's
// retained operands in skip-mask order as expansion offsets, then emit
// one SMLAD per surviving pair and an SMLABB for the odd leftover.
template <typename Layer>
UnpackedLayer unpack(const Layer& layer, const ConvGeom& g, bool depthwise,
                     const uint8_t* skip) {
  UnpackedLayer u;
  u.geom = g;
  u.in_q = layer.in;
  u.out_q = layer.out;
  u.act_min = layer.act_min;
  u.act_max = layer.act_max;

  // Operands per channel: the whole patch for conv, the k*k taps for
  // depthwise.
  const int patch = depthwise ? g.kernel * g.kernel : g.patch_size();
  std::vector<uint32_t> retained;
  retained.reserve(static_cast<size_t>(patch));
  u.channels.resize(static_cast<size_t>(g.out_c));
  for (int ch = 0; ch < g.out_c; ++ch) {
    const uint8_t* sk =
        skip != nullptr ? skip + static_cast<size_t>(ch) * patch : nullptr;
    retained.clear();
    for (int i = 0; i < patch; ++i) {
      if (sk != nullptr && sk[i]) continue;
      retained.push_back(static_cast<uint32_t>(
          depthwise ? dw_weight_index(ch, i, g.in_c) : i));
    }
    // The weight of the operand at expansion offset `off` is w[off]: the
    // depthwise [k][k][c] weight order is the expansion's order.
    const int8_t* w =
        layer.weights.data() +
        (depthwise ? 0 : static_cast<size_t>(ch) * patch);
    ChannelProgram& prog = u.channels[static_cast<size_t>(ch)];
    prog.bias = layer.bias[static_cast<size_t>(ch)];
    // Per-output-channel requant constant, baked like the bias.
    prog.requant = layer.requant[static_cast<size_t>(ch)];
    const size_t n_pairs = retained.size() / 2;
    prog.pairs.reserve(n_pairs);
    for (size_t p = 0; p < n_pairs; ++p) {
      const uint32_t ia = retained[2 * p];
      const uint32_t ib = retained[2 * p + 1];
      prog.pairs.push_back(
          {pack_weight_pair(/*hi=*/w[ib], /*lo=*/w[ia]), ia, ib});
    }
    if (retained.size() % 2 != 0) {
      prog.has_single = true;
      prog.single = {w[retained.back()], retained.back()};
    }
  }
  return u;
}

}  // namespace

UnpackedLayer UnpackedLayer::build(const QLayer& layer, const uint8_t* skip) {
  if (const auto* conv = std::get_if<QConv2D>(&layer))
    return unpack(*conv, conv->geom, /*depthwise=*/false, skip);
  const auto* dw = std::get_if<QDepthwiseConv2D>(&layer);
  check(dw != nullptr,
        "UnpackedLayer::build: only conv and depthwise layers unpack");
  return unpack(*dw, dw->expansion_geom(), /*depthwise=*/true, skip);
}

template <int Lanes>
void UnpackedLayer::run_lanes(std::span<const int8_t> in,
                              std::span<int8_t> out, int batch,
                              std::span<int16_t> scratch,
                              ColumnRange range) const {
  check(batch >= 1, "UnpackedLayer::run: batch must be >= 1");
  const size_t in_elems =
      static_cast<size_t>(geom.in_h) * geom.in_w * geom.in_c;
  const size_t out_elems =
      static_cast<size_t>(geom.positions()) * geom.out_c;
  check(in.size() == in_elems * static_cast<size_t>(batch),
        "unpacked layer batched input size mismatch");
  check(out.size() == out_elems * static_cast<size_t>(batch),
        "unpacked layer batched output size mismatch");

  const int oh = geom.out_h(), ow = geom.out_w();
  const int ox_end = range.end_within(ow);
  const size_t patch = static_cast<size_t>(geom.patch_size());

  // The host interpreter materializes the zero-point-corrected patch once
  // per position purely as a host-speed optimization; the *priced*
  // instruction stream (add_step_cycles on the unpacked price list)
  // models direct activation loads with no such buffer, and the numerics
  // are identical. Lane-major column blocks (cols[j * patch + offset]):
  // each program's hardwired weight constant is fetched once and
  // multiplied into `Lanes` accumulators. Lane loops run all `Lanes`
  // lanes at a constant trip count; ragged tails compute over the
  // zero-filled padding lanes and discard them (SMLAD wraparound is
  // defined).
  const Q15Scratch cols(scratch, static_cast<size_t>(Lanes) * patch);
  for (int b0 = 0; b0 < batch; b0 += Lanes) {
    const int bn = std::min(Lanes, batch - b0);
    if (bn < Lanes) cols.zero();
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = range.begin; ox < ox_end; ++ox) {
        for (int j = 0; j < bn; ++j) {
          im2col_patch_q15(
              geom, in_q.zero_point,
              in.subspan(static_cast<size_t>(b0 + j) * in_elems, in_elems),
              oy, ox, cols.data() + static_cast<size_t>(j) * patch);
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

void UnpackedLayer::run(std::span<const int8_t> in, std::span<int8_t> out,
                        int batch, std::span<int16_t> scratch,
                        ColumnRange range) const {
  if (batch == 1) return run_lanes<1>(in, out, 1, scratch, range);
  run_lanes<kBatchLanes>(in, out, batch, scratch, range);
}

}  // namespace ataman
