#include "src/mcu/cost_model.hpp"

#include <cmath>

#include "src/common/error.hpp"
#include "src/mcu/stream_plan.hpp"

namespace ataman {

bool packed_conv_uses_fast_path(const QConv2D& layer) {
  return layer.geom.in_c % 4 == 0 && layer.geom.out_c % 2 == 0;
}

namespace {

// An unpacked conv/depthwise program (`d`: its channel and position
// counts) replayed at `recomputed` of its output positions: setup, then
// the retained pairs/singles and the per-channel epilogue per position.
int64_t unpacked_program_cycles(const OpDescriptor& d, int64_t static_pairs,
                                int64_t static_singles, int64_t recomputed) {
  check(static_pairs >= 0 && static_singles >= 0,
        "negative retained op counts");
  check(recomputed >= 0 && recomputed <= d.positions,
        "recomputed positions out of range");
  double cycles = kM33Costs.unpacked_layer_setup;
  cycles += kM33Costs.unpacked_per_pair *
            static_cast<double>(static_pairs * recomputed);
  cycles += kM33Costs.unpacked_per_single *
            static_cast<double>(static_singles * recomputed);
  cycles += kM33Costs.unpacked_chan_epilogue *
            static_cast<double>(recomputed * d.channels);
  return static_cast<int64_t>(std::llround(cycles));
}

}  // namespace

int64_t packed_conv_cycles(const QConv2D& layer) {
  const ConvGeom& g = layer.geom;
  const int64_t positions = g.positions();
  const int64_t patch = g.patch_size();
  const int64_t macs = g.macs();

  double cycles = 0.0;
  // im2col fills one q15 patch per output position.
  cycles += kM33Costs.im2col_per_elem * static_cast<double>(positions * patch);
  if (packed_conv_uses_fast_path(layer)) {
    const int64_t pairs_per_chan = patch / 2;
    const int64_t singles_per_chan = patch % 2;
    cycles += kM33Costs.packed_fast_per_pair *
              static_cast<double>(positions * g.out_c * pairs_per_chan);
    // Odd leftover per channel costs about one scalar MAC.
    cycles += kM33Costs.packed_basic_per_mac *
              static_cast<double>(positions * g.out_c * singles_per_chan);
  } else {
    cycles += kM33Costs.packed_basic_per_mac * static_cast<double>(macs);
  }
  cycles += kM33Costs.packed_chan_epilogue *
            static_cast<double>(positions * g.out_c);
  return static_cast<int64_t>(std::llround(cycles));
}

int64_t packed_depthwise_cycles(const QDepthwiseConv2D& layer) {
  double cycles =
      kM33Costs.packed_depthwise_per_mac * static_cast<double>(layer.macs());
  cycles += kM33Costs.packed_chan_epilogue *
            static_cast<double>(layer.positions()) * layer.channels;
  return static_cast<int64_t>(std::llround(cycles));
}

int64_t dense_cycles(const QDense& layer) {
  double cycles = 0.0;
  cycles += kM33Costs.fc_per_pair *
            static_cast<double>(layer.out_dim) * (layer.in_dim / 2);
  cycles += kM33Costs.fc_per_pair * 2.0 *
            static_cast<double>(layer.out_dim) * (layer.in_dim % 2);
  cycles += kM33Costs.fc_out_epilogue * static_cast<double>(layer.out_dim);
  return static_cast<int64_t>(std::llround(cycles));
}

int64_t pool_cycles(const QMaxPool& layer) {
  const int64_t outputs =
      static_cast<int64_t>(layer.out_h()) * layer.out_w() * layer.channels;
  const int64_t taps = static_cast<int64_t>(layer.kernel) * layer.kernel;
  return static_cast<int64_t>(
      std::llround(kM33Costs.pool_per_output_elem_per_tap *
                   static_cast<double>(outputs * taps)));
}

int64_t avgpool_cycles(const QAvgPool& layer) {
  const int64_t outputs =
      static_cast<int64_t>(layer.out_h()) * layer.out_w() * layer.channels;
  const int64_t taps = static_cast<int64_t>(layer.kernel) * layer.kernel;
  return static_cast<int64_t>(
      std::llround(kM33Costs.pool_per_output_elem_per_tap *
                       static_cast<double>(outputs * taps) +
                   kM33Costs.avgpool_div_per_output *
                       static_cast<double>(outputs)));
}

int64_t qadd_cycles(const QAdd& layer) {
  return static_cast<int64_t>(std::llround(
      kM33Costs.qadd_per_elem * static_cast<double>(layer.elems())));
}

namespace {

// Packed (CMSIS-style) kernel cycles of one layer, dispatch excluded.
int64_t packed_kernel_cycles(const QLayer& layer) {
  if (const auto* conv = std::get_if<QConv2D>(&layer))
    return packed_conv_cycles(*conv);
  if (const auto* dw = std::get_if<QDepthwiseConv2D>(&layer))
    return packed_depthwise_cycles(*dw);
  if (const auto* pool = std::get_if<QMaxPool>(&layer))
    return pool_cycles(*pool);
  if (const auto* pool = std::get_if<QAvgPool>(&layer))
    return avgpool_cycles(*pool);
  if (const auto* fc = std::get_if<QDense>(&layer))
    return dense_cycles(*fc);
  return qadd_cycles(std::get<QAdd>(layer));
}

// X-CUBE-AI: dispatch plus the fused-kernel terms, each added to `total`
// unrounded and in order.
void add_xcube_cycles(double& total, const QLayer& layer) {
  total += kXCubeCosts.layer_dispatch;
  if (const auto* conv = std::get_if<QConv2D>(&layer)) {
    const ConvGeom& g = conv->geom;
    total += kXCubeCosts.im2col_per_elem * static_cast<double>(g.positions()) *
             g.patch_size();
    if (packed_conv_uses_fast_path(*conv)) {
      total += kXCubeCosts.fast_per_pair * static_cast<double>(g.positions()) *
               g.out_c * (g.patch_size() / 2);
      total += kXCubeCosts.basic_per_mac * static_cast<double>(g.positions()) *
               g.out_c * (g.patch_size() % 2);
    } else {
      total += kXCubeCosts.basic_per_mac * static_cast<double>(g.macs());
    }
    total += kXCubeCosts.chan_epilogue * static_cast<double>(g.positions()) *
             g.out_c;
  } else if (const auto* dw = std::get_if<QDepthwiseConv2D>(&layer)) {
    // Depthwise stays on the non-SIMD path (per-channel filters cannot
    // feed the fused dual-MAC kernel), with the fused epilogue.
    total += kXCubeCosts.basic_per_mac * static_cast<double>(dw->macs());
    total += kXCubeCosts.chan_epilogue * static_cast<double>(dw->positions()) *
             dw->channels;
  } else if (const auto* pool = std::get_if<QMaxPool>(&layer)) {
    total += kXCubeCosts.pool_per_output_elem_per_tap *
             static_cast<double>(pool->out_h()) * pool->out_w() *
             pool->channels * pool->kernel * pool->kernel;
  } else if (const auto* pool = std::get_if<QAvgPool>(&layer)) {
    total += kXCubeCosts.pool_per_output_elem_per_tap *
             static_cast<double>(pool->out_h()) * pool->out_w() *
             pool->channels * (pool->kernel * pool->kernel + 2);
  } else if (const auto* fc = std::get_if<QDense>(&layer)) {
    total += kXCubeCosts.fc_per_pair * static_cast<double>(fc->out_dim) *
             (fc->in_dim / 2);
    total += kXCubeCosts.fc_out_epilogue * static_cast<double>(fc->out_dim);
  } else if (const auto* add = std::get_if<QAdd>(&layer)) {
    total += kXCubeCosts.qadd_per_elem * static_cast<double>(add->elems());
  }
}

// Profile label of one step: the op, and on the unpacked list which form
// an approximable layer took.
const char* step_label(OpKind kind, PriceList prices, bool unpacked) {
  const bool split = prices == PriceList::kUnpacked;
  switch (kind) {
    case OpKind::kConv:
      return !split ? "conv" : unpacked ? "conv(unpacked)" : "conv(packed)";
    case OpKind::kDepthwise:
      return !split     ? "depthwise"
             : unpacked ? "depthwise(unpacked)"
                        : "depthwise(packed)";
    case OpKind::kMaxPool: return "pool";
    case OpKind::kAvgPool: return "avgpool";
    case OpKind::kDense: return "fc";
    case OpKind::kAdd: return "add";
  }
  return "?";
}

}  // namespace

double add_step_cycles(double& total, const QLayer& layer, PriceList prices,
                       int64_t static_pairs, int64_t static_singles,
                       int64_t recomputed_positions) {
  const double before = total;
  if (prices == PriceList::kXCube) {
    add_xcube_cycles(total, layer);
  } else if (prices == PriceList::kUnpacked &&
             static_pairs >= 0 && describe_layer(layer).skippable) {
    // The unpacked program's setup replaces the runtime dispatch.
    const OpDescriptor d = describe_layer(layer);
    total += static_cast<double>(unpacked_program_cycles(
        d, static_pairs, static_singles,
        recomputed_positions >= 0 ? recomputed_positions : d.positions));
  } else if (prices == PriceList::kPacked &&
             recomputed_positions >= 0) {
    // A streamed packed step: every packed conv/depthwise term (im2col,
    // MACs, epilogue) is proportional to output positions, so the kernel
    // scales by the recomputed fraction.
    const OpDescriptor d = describe_layer(layer);
    double kernel = static_cast<double>(packed_kernel_cycles(layer));
    if (d.skippable) {
      kernel = kernel * static_cast<double>(recomputed_positions) /
               static_cast<double>(d.positions);
    }
    total += kM33Costs.layer_dispatch;
    total += kernel;
  } else {
    total += kM33Costs.layer_dispatch +
             static_cast<double>(packed_kernel_cycles(layer));
  }
  return total - before;
}

ModelPrice price_model(const QModel& model, PriceList prices,
                       const std::vector<int64_t>& static_pairs,
                       const std::vector<int64_t>& static_singles,
                       const StreamPlan* stream) {
  check(static_pairs.size() == static_singles.size(),
        "pair/single vectors must align");
  check(stream == nullptr || stream->layers.size() == model.layers.size(),
        "stream plan does not match model");
  ModelPrice r;
  int ordinal = 0;
  int logits = 0;
  for (size_t l = 0; l < model.layers.size(); ++l) {
    const QLayer& layer = model.layers[l];
    const OpDescriptor d = describe_layer(layer);
    const StreamLayerPlan* lp =
        stream != nullptr ? &stream->layers[l] : nullptr;
    int64_t pairs = -1, singles = 0;
    if (d.skippable) {
      if (ordinal < static_cast<int>(static_pairs.size())) {
        pairs = static_pairs[static_cast<size_t>(ordinal)];
        singles = static_singles[static_cast<size_t>(ordinal)];
      }
      ++ordinal;
    }
    const bool unpacked =
        prices == PriceList::kUnpacked && d.skippable && pairs >= 0;
    double c = add_step_cycles(r.cycles, layer, prices, pairs, singles,
                               lp != nullptr ? lp->recomputed_positions : -1);
    if (lp != nullptr && lp->spliced) {
      const double copy = kM33Costs.stream_splice_per_elem *
                          static_cast<double>(lp->splice_hi - lp->splice_lo) *
                          static_cast<double>(lp->out_rows) * lp->out_ch;
      r.cycles += copy;
      c += copy;
    }
    const int64_t macs =
        unpacked ? (2 * pairs + singles) * d.positions : d.macs;
    r.macs += macs;
    r.rows.push_back({step_label(d.kind, prices, unpacked),
                      static_cast<int64_t>(c), macs});
    if (d.kind == OpKind::kDense) logits = d.out_dim;
  }
  const bool xcube = prices == PriceList::kXCube;
  const double softmax = (xcube ? kXCubeCosts.softmax_per_logit
                                : kM33Costs.softmax_per_logit) *
                         logits;
  r.cycles += softmax;
  r.rows.push_back({"softmax", static_cast<int64_t>(softmax), 0});
  r.total_cycles = xcube ? static_cast<int64_t>(std::llround(r.cycles))
                         : static_cast<int64_t>(r.cycles);
  return r;
}

int64_t packed_model_cycles(const QModel& model) {
  return static_cast<int64_t>(
      std::llround(price_model(model, PriceList::kPacked).cycles));
}

StreamingCostRow steady_state_stream_cost(const QModel& model,
                                          int stride_cols) {
  const StreamPlan plan = plan_stream_steady(model, stride_cols);
  StreamingCostRow row;
  row.stride_cols = stride_cols;
  row.full_cycles = packed_model_cycles(model);
  row.macs_per_frame = plan.frame_macs;
  row.full_macs = plan.full_macs;
  row.spliced_elems = plan.spliced_elems;
  row.reuse_ratio = plan.reuse_ratio();
  row.cycles_per_frame = static_cast<int64_t>(std::llround(
      price_model(model, PriceList::kPacked, {}, {}, &plan).cycles));
  return row;
}

}  // namespace ataman
