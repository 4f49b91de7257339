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
                                int64_t static_singles, int64_t recomputed,
                                const CortexM33CostTable& t) {
  check(static_pairs >= 0 && static_singles >= 0,
        "negative retained op counts");
  check(recomputed >= 0 && recomputed <= d.positions,
        "recomputed positions out of range");
  double cycles = t.unpacked_layer_setup;
  cycles += t.unpacked_per_pair * static_cast<double>(static_pairs * recomputed);
  cycles +=
      t.unpacked_per_single * static_cast<double>(static_singles * recomputed);
  cycles +=
      t.unpacked_chan_epilogue * static_cast<double>(recomputed * d.channels);
  return static_cast<int64_t>(std::llround(cycles));
}

}  // namespace

int64_t packed_conv_cycles(const QConv2D& layer, const CortexM33CostTable& t) {
  const ConvGeom& g = layer.geom;
  const int64_t positions = g.positions();
  const int64_t patch = g.patch_size();
  const int64_t macs = g.macs();

  double cycles = 0.0;
  // im2col fills one q15 patch per output position.
  cycles += t.im2col_per_elem * static_cast<double>(positions * patch);
  if (packed_conv_uses_fast_path(layer)) {
    const int64_t pairs_per_chan = patch / 2;
    const int64_t singles_per_chan = patch % 2;
    cycles += t.packed_fast_per_pair *
              static_cast<double>(positions * g.out_c * pairs_per_chan);
    // Odd leftover per channel costs about one scalar MAC.
    cycles += t.packed_basic_per_mac *
              static_cast<double>(positions * g.out_c * singles_per_chan);
  } else {
    cycles += t.packed_basic_per_mac * static_cast<double>(macs);
  }
  cycles += t.packed_chan_epilogue *
            static_cast<double>(positions * g.out_c);
  return static_cast<int64_t>(std::llround(cycles));
}

int64_t packed_depthwise_cycles(const QDepthwiseConv2D& layer,
                                const CortexM33CostTable& t) {
  double cycles =
      t.packed_depthwise_per_mac * static_cast<double>(layer.macs());
  cycles += t.packed_chan_epilogue *
            static_cast<double>(layer.positions()) * layer.channels;
  return static_cast<int64_t>(std::llround(cycles));
}

int64_t dense_cycles(const QDense& layer, const CortexM33CostTable& t) {
  double cycles = 0.0;
  cycles += t.fc_per_pair *
            static_cast<double>(layer.out_dim) * (layer.in_dim / 2);
  cycles += t.fc_per_pair * 2.0 *
            static_cast<double>(layer.out_dim) * (layer.in_dim % 2);
  cycles += t.fc_out_epilogue * static_cast<double>(layer.out_dim);
  return static_cast<int64_t>(std::llround(cycles));
}

int64_t pool_cycles(const QMaxPool& layer, const CortexM33CostTable& t) {
  const int64_t outputs =
      static_cast<int64_t>(layer.out_h()) * layer.out_w() * layer.channels;
  const int64_t taps = static_cast<int64_t>(layer.kernel) * layer.kernel;
  return static_cast<int64_t>(
      std::llround(t.pool_per_output_elem_per_tap *
                   static_cast<double>(outputs * taps)));
}

int64_t avgpool_cycles(const QAvgPool& layer, const CortexM33CostTable& t) {
  const int64_t outputs =
      static_cast<int64_t>(layer.out_h()) * layer.out_w() * layer.channels;
  const int64_t taps = static_cast<int64_t>(layer.kernel) * layer.kernel;
  return static_cast<int64_t>(
      std::llround(t.pool_per_output_elem_per_tap *
                       static_cast<double>(outputs * taps) +
                   t.avgpool_div_per_output * static_cast<double>(outputs)));
}

int64_t qadd_cycles(const QAdd& layer, const CortexM33CostTable& t) {
  return static_cast<int64_t>(
      std::llround(t.qadd_per_elem * static_cast<double>(layer.elems())));
}

namespace {

// Packed (CMSIS-style) kernel cycles of one layer, dispatch excluded.
int64_t packed_kernel_cycles(const QLayer& layer,
                             const CortexM33CostTable& t) {
  if (const auto* conv = std::get_if<QConv2D>(&layer))
    return packed_conv_cycles(*conv, t);
  if (const auto* dw = std::get_if<QDepthwiseConv2D>(&layer))
    return packed_depthwise_cycles(*dw, t);
  if (const auto* pool = std::get_if<QMaxPool>(&layer))
    return pool_cycles(*pool, t);
  if (const auto* pool = std::get_if<QAvgPool>(&layer))
    return avgpool_cycles(*pool, t);
  if (const auto* fc = std::get_if<QDense>(&layer))
    return dense_cycles(*fc, t);
  return qadd_cycles(std::get<QAdd>(layer), t);
}

// X-CUBE-AI: dispatch plus the fused-kernel terms, each added to `total`
// unrounded and in order.
void add_xcube_cycles(double& total, const QLayer& layer,
                      const XCubeCostTable& x) {
  total += x.layer_dispatch;
  if (const auto* conv = std::get_if<QConv2D>(&layer)) {
    const ConvGeom& g = conv->geom;
    total += x.im2col_per_elem * static_cast<double>(g.positions()) *
             g.patch_size();
    if (packed_conv_uses_fast_path(*conv)) {
      total += x.fast_per_pair * static_cast<double>(g.positions()) *
               g.out_c * (g.patch_size() / 2);
      total += x.basic_per_mac * static_cast<double>(g.positions()) *
               g.out_c * (g.patch_size() % 2);
    } else {
      total += x.basic_per_mac * static_cast<double>(g.macs());
    }
    total += x.chan_epilogue * static_cast<double>(g.positions()) * g.out_c;
  } else if (const auto* dw = std::get_if<QDepthwiseConv2D>(&layer)) {
    // Depthwise stays on the non-SIMD path (per-channel filters cannot
    // feed the fused dual-MAC kernel), with the fused epilogue.
    total += x.basic_per_mac * static_cast<double>(dw->macs());
    total += x.chan_epilogue * static_cast<double>(dw->positions()) *
             dw->channels;
  } else if (const auto* pool = std::get_if<QMaxPool>(&layer)) {
    total += x.pool_per_output_elem_per_tap *
             static_cast<double>(pool->out_h()) * pool->out_w() *
             pool->channels * pool->kernel * pool->kernel;
  } else if (const auto* pool = std::get_if<QAvgPool>(&layer)) {
    total += x.pool_per_output_elem_per_tap *
             static_cast<double>(pool->out_h()) * pool->out_w() *
             pool->channels * (pool->kernel * pool->kernel + 2);
  } else if (const auto* fc = std::get_if<QDense>(&layer)) {
    total += x.fc_per_pair * static_cast<double>(fc->out_dim) *
             (fc->in_dim / 2);
    total += x.fc_out_epilogue * static_cast<double>(fc->out_dim);
  } else if (const auto* add = std::get_if<QAdd>(&layer)) {
    total += x.qadd_per_elem * static_cast<double>(add->elems());
  }
}

// Profile label of one step: the op, and on the unpacked list which form
// an approximable layer took.
const char* step_label(OpKind kind, PriceList::Family family,
                       bool unpacked) {
  const bool split = family == PriceList::Family::kUnpacked;
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

double add_step_cycles(double& total, const QLayer& layer,
                       const PriceList& prices, int64_t static_pairs,
                       int64_t static_singles,
                       int64_t recomputed_positions) {
  const double before = total;
  const CortexM33CostTable& t = prices.m33;
  if (prices.family == PriceList::Family::kXCube) {
    add_xcube_cycles(total, layer, prices.xcube);
  } else if (prices.family == PriceList::Family::kUnpacked &&
             static_pairs >= 0 && describe_layer(layer).skippable) {
    // The unpacked program's setup replaces the runtime dispatch.
    const OpDescriptor d = describe_layer(layer);
    total += static_cast<double>(unpacked_program_cycles(
        d, static_pairs, static_singles,
        recomputed_positions >= 0 ? recomputed_positions : d.positions, t));
  } else if (prices.family == PriceList::Family::kPacked &&
             recomputed_positions >= 0) {
    // A streamed packed step: every packed conv/depthwise term (im2col,
    // MACs, epilogue) is proportional to output positions, so the kernel
    // scales by the recomputed fraction.
    const OpDescriptor d = describe_layer(layer);
    double kernel = static_cast<double>(packed_kernel_cycles(layer, t));
    if (d.skippable) {
      kernel = kernel * static_cast<double>(recomputed_positions) /
               static_cast<double>(d.positions);
    }
    total += t.layer_dispatch;
    total += kernel;
  } else {
    total += t.layer_dispatch +
             static_cast<double>(packed_kernel_cycles(layer, t));
  }
  return total - before;
}

ModelPrice price_model(const QModel& model, const PriceList& prices,
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
    const bool unpacked = prices.family == PriceList::Family::kUnpacked &&
                          d.skippable && pairs >= 0;
    double c = add_step_cycles(r.cycles, layer, prices, pairs, singles,
                               lp != nullptr ? lp->recomputed_positions : -1);
    if (lp != nullptr && lp->spliced) {
      const double copy = prices.m33.stream_splice_per_elem *
                          static_cast<double>(lp->splice_hi - lp->splice_lo) *
                          static_cast<double>(lp->out_rows) * lp->out_ch;
      r.cycles += copy;
      c += copy;
    }
    const int64_t macs =
        unpacked ? (2 * pairs + singles) * d.positions : d.macs;
    r.macs += macs;
    r.rows.push_back({step_label(d.kind, prices.family, unpacked),
                      static_cast<int64_t>(c), macs});
    if (d.kind == OpKind::kDense) logits = d.out_dim;
  }
  const bool xcube = prices.family == PriceList::Family::kXCube;
  const double softmax = (xcube ? prices.xcube.softmax_per_logit
                                : prices.m33.softmax_per_logit) *
                         logits;
  r.cycles += softmax;
  r.rows.push_back({"softmax", static_cast<int64_t>(softmax), 0});
  r.total_cycles = xcube ? static_cast<int64_t>(std::llround(r.cycles))
                         : static_cast<int64_t>(r.cycles);
  return r;
}

int64_t packed_model_cycles(const QModel& model, const CortexM33CostTable& t) {
  return static_cast<int64_t>(std::llround(
      price_model(model, PriceList{PriceList::Family::kPacked, t}).cycles));
}

StreamingCostRow steady_state_stream_cost(const QModel& model, int stride_cols,
                                          const CortexM33CostTable& t) {
  const StreamPlan plan = plan_stream_steady(model, stride_cols);
  StreamingCostRow row;
  row.stride_cols = stride_cols;
  row.full_cycles = packed_model_cycles(model, t);
  row.macs_per_frame = plan.frame_macs;
  row.full_macs = plan.full_macs;
  row.spliced_elems = plan.spliced_elems;
  row.reuse_ratio = plan.reuse_ratio();
  row.cycles_per_frame = static_cast<int64_t>(std::llround(
      price_model(model, PriceList{PriceList::Family::kPacked, t}, {}, {},
                  &plan)
          .cycles));
  return row;
}

}  // namespace ataman
