#include "src/unpack/unpacked_layer.hpp"

#include "src/common/error.hpp"
#include "src/cmsisnn/packed_kernels.hpp"  // run_conv_blocks
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

void UnpackedLayer::run(std::span<const int8_t> in, std::span<int8_t> out,
                        int batch, std::span<int16_t> scratch,
                        ColumnRange range) const {
  // The host interpreter reads each program's operands from the planar
  // input copy purely as a host-speed optimization: the *priced*
  // instruction stream (add_step_cycles on the unpacked price list)
  // models one position at a time with direct activation loads and no
  // such buffer, and the numerics are identical.
  const auto channel = [&](int oc, auto& block) -> const QuantizedMultiplier& {
    const ChannelProgram& prog = channels[static_cast<size_t>(oc)];
    block.reset(prog.bias);
    for (const MacPairOp& op : prog.pairs)
      block.mac(op.weight_const, op.operand_a, op.operand_b);
    if (prog.has_single)
      block.mac_single(prog.single.weight, prog.single.operand);
    return prog.requant;
  };
  run_conv_blocks(geom, in_q.zero_point, out_q.zero_point, act_min, act_max,
                  in, out, batch, scratch, range, channel);
}

}  // namespace ataman
