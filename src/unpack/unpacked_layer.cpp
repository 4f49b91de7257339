#include "src/unpack/unpacked_layer.hpp"

#include <algorithm>

#include "src/common/error.hpp"
#include "src/cmsisnn/packed_kernels.hpp"  // run_conv_blocks
#include "src/cmsisnn/smlad.hpp"
#include "src/sig/significance.hpp"

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
// operands per band in skip-mask order as expansion offsets (`band(op)`
// is skip-mask operand op's band, or -1 when every rung skips it), then
// emit the bands from the top rung down, one SMLAD per pair and an
// SMLABB for a band's odd leftover.
template <typename Layer, typename Band>
UnpackedLayer unpack(const Layer& layer, const ConvGeom& g, bool depthwise,
                     int rungs, const Band& band) {
  UnpackedLayer u;
  u.geom = g;
  u.in_q = layer.in;
  u.out_q = layer.out;
  u.act_min = layer.act_min;
  u.act_max = layer.act_max;
  u.rung_count = rungs;

  // Operands per channel: the whole patch for conv, the k*k taps for
  // depthwise.
  const int patch = depthwise ? g.kernel * g.kernel : g.patch_size();
  std::vector<std::vector<uint32_t>> retained(static_cast<size_t>(rungs));
  u.channels.resize(static_cast<size_t>(g.out_c));
  for (int ch = 0; ch < g.out_c; ++ch) {
    for (auto& ops : retained) ops.clear();
    for (int i = 0; i < patch; ++i) {
      const int b = band(static_cast<size_t>(ch) * patch + i);
      if (b < 0) continue;
      retained[static_cast<size_t>(b)].push_back(static_cast<uint32_t>(
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
    prog.band_end.resize(static_cast<size_t>(rungs));
    for (int r = rungs - 1; r >= 0; --r) {
      const std::vector<uint32_t>& ops = retained[static_cast<size_t>(r)];
      for (size_t p = 0; p + 1 < ops.size(); p += 2) {
        prog.pairs.push_back(
            {pack_weight_pair(/*hi=*/w[ops[p + 1]], /*lo=*/w[ops[p]]), ops[p],
             ops[p + 1]});
      }
      if (ops.size() % 2 != 0 && r == 0) {
        prog.has_single = true;
        prog.single = {w[ops.back()], ops.back()};
      } else if (ops.size() % 2 != 0) {
        prog.pairs.push_back(
            {pack_weight_pair(0, w[ops.back()]), ops.back(), ops.back()});
      }
      prog.band_end[static_cast<size_t>(r)] =
          static_cast<uint32_t>(prog.pairs.size());
    }
  }
  return u;
}

template <typename Band>
UnpackedLayer unpack_layer(const QLayer& layer, int rungs, const Band& band) {
  if (const auto* conv = std::get_if<QConv2D>(&layer))
    return unpack(*conv, conv->geom, /*depthwise=*/false, rungs, band);
  const auto* dw = std::get_if<QDepthwiseConv2D>(&layer);
  check(dw != nullptr,
        "UnpackedLayer::build: only conv and depthwise layers unpack");
  return unpack(*dw, dw->expansion_geom(), /*depthwise=*/true, rungs, band);
}

// Runs the SMLAD steps [op, end) of one band on `block`. The steps
// accumulate into a local copy, kept out of line: GCC then holds its
// accumulators in registers, where the caller's block, which a rung's
// store reads between two bands, stays in memory on every step.
template <typename Block>
[[gnu::noinline]] const MacPairOp* accumulate(Block& block,
                                              const MacPairOp* op,
                                              const MacPairOp* end) {
  Block local = block;
  for (; op < end; ++op)
    local.mac(op->weight_const, op->operand_a, op->operand_b);
  block.acc = local.acc;
  return op;
}

}  // namespace

UnpackedLayer UnpackedLayer::build(const QLayer& layer, const uint8_t* skip) {
  return unpack_layer(layer, 1, [&](size_t op) {
    return skip != nullptr && skip[op] ? -1 : 0;
  });
}

UnpackedLayer UnpackedLayer::build_rungs(const QLayer& layer,
                                         const LayerSignificance& sig,
                                         std::span<const double> rung_taus) {
  check(std::is_sorted(rung_taus.begin(), rung_taus.end()),
        "UnpackedLayer::build_rungs: rung taus must ascend");
  check(static_cast<int64_t>(sig.S.size()) ==
            describe_layer(layer).skippable_operand_count(),
        "UnpackedLayer::build_rungs: significance does not match layer");
  // An operand lies in the band of the highest rung that retains it: the
  // skip sets nest, so that is the number of rungs above 0 retaining it.
  return unpack_layer(
      layer, static_cast<int>(rung_taus.size()) + 1, [&](size_t op) {
        return static_cast<int>(
            std::count_if(rung_taus.begin(), rung_taus.end(), [&](double t) {
              return !skips(sig.S[op], t);
            }));
      });
}

void UnpackedLayer::run(std::span<const int8_t> in, std::span<int8_t> out,
                        int batch, std::span<int16_t> scratch,
                        ColumnRange range) const {
  run_rungs(in, std::span<const std::span<int8_t>>(&out, 1), batch, scratch,
            range);
}

void UnpackedLayer::run_rungs(std::span<const int8_t> in,
                              std::span<const std::span<int8_t>> outs,
                              int batch, std::span<int16_t> scratch,
                              ColumnRange range) const {
  check(static_cast<int>(outs.size()) == rung_count,
        "unpacked layer: one output span per rung");
  size_t lowest = 0;
  while (lowest < outs.size() && outs[lowest].empty()) ++lowest;
  if (lowest == outs.size()) return;
  // The host interpreter reads each program's operands from the planar
  // input copy purely as a host-speed optimization: the *priced*
  // instruction stream (add_step_cycles on the unpacked price list)
  // models one position at a time with direct activation loads and no
  // such buffer, and the numerics are identical.
  const auto channel = [&](int oc, auto& block, const auto& store) {
    const ChannelProgram& prog = channels[static_cast<size_t>(oc)];
    block.reset(prog.bias);
    const MacPairOp* op = prog.pairs.data();
    for (size_t r = outs.size(); r-- > lowest;) {
      op = accumulate(block, op, prog.pairs.data() + prog.band_end[r]);
      if (r == 0 && prog.has_single)
        block.mac_single(prog.single.weight, prog.single.operand);
      if (!outs[r].empty()) store(r, prog.requant);
    }
  };
  run_conv_blocks(geom, in_q.zero_point, out_q.zero_point, act_min, act_max,
                  in, outs, batch, scratch, range, channel);
}

}  // namespace ataman
