#include "src/sig/act_stats.hpp"

#include <algorithm>

#include "src/common/error.hpp"
#include "src/common/parallel.hpp"
#include "src/cmsisnn/cmsis_engine.hpp"
#include "src/core/exec_plan.hpp"

namespace ataman {

namespace {

// Receptive-field geometry of one approximable layer, with `taps_c` the
// innermost (channel) extent of a patch row: in_c for conv, channels for
// depthwise. The (ky, kx, c)-flattened accumulation index then matches
// the conv patch order and the depthwise [k][k][c] weight layout alike.
struct PatchGeom {
  int in_h, in_w, taps_c, kernel, stride, pad;
  int out_h, out_w;
  int32_t zp;
};

PatchGeom patch_geom(const QLayer& layer) {
  if (const auto* conv = std::get_if<QConv2D>(&layer)) {
    const ConvGeom& g = conv->geom;
    return {g.in_h,    g.in_w,    g.in_c, g.kernel, g.stride, g.pad,
            g.out_h(), g.out_w(), conv->in.zero_point};
  }
  const auto& dw = std::get<QDepthwiseConv2D>(layer);
  return {dw.in_h,    dw.in_w,    dw.channels, dw.kernel, dw.stride, dw.pad,
          dw.out_h(), dw.out_w(), dw.in.zero_point};
}

// Per-operand sums of (x - zp) over all output positions, read from
// `in`, the elementwise sum of `images` input feature maps: each
// operand's window adds the summed pixel minus images * zp.
void accumulate_patch_sums(const PatchGeom& g, std::span<const int64_t> in,
                           int64_t images, std::vector<int64_t>& sums) {
  const int64_t zp = images * g.zp;
  for (int oy = 0; oy < g.out_h; ++oy) {
    for (int ox = 0; ox < g.out_w; ++ox) {
      int idx = 0;
      for (int ky = 0; ky < g.kernel; ++ky) {
        const int iy = oy * g.stride - g.pad + ky;
        for (int kx = 0; kx < g.kernel; ++kx, idx += g.taps_c) {
          const int ix = ox * g.stride - g.pad + kx;
          // Padding taps contribute (zp - zp) == 0.
          if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) continue;
          const int64_t* src =
              in.data() + (static_cast<size_t>(iy) * g.in_w + ix) * g.taps_c;
          for (int c = 0; c < g.taps_c; ++c)
            sums[static_cast<size_t>(idx + c)] += src[c] - zp;
        }
      }
    }
  }
}

}  // namespace

int64_t stats_len(const QLayer& layer) {
  const PatchGeom g = patch_geom(layer);
  return static_cast<int64_t>(g.kernel) * g.kernel * g.taps_c;
}

std::vector<ConvInputStats> capture_activation_stats(const QModel& model,
                                                     const Dataset& calib,
                                                     int limit) {
  const int n = limit < 0 ? calib.size() : std::min(limit, calib.size());
  check(n > 0, "calibration subset is empty");
  const int approx_count = model.approx_layer_count();
  // Nothing to capture on models with no approximable layers (dense-only
  // autoencoders): the legitimate answer is an empty stats vector.
  if (approx_count == 0) return {};

  std::vector<const QLayer*> layers;  // by approximable ordinal
  for (int k = 0; k < approx_count; ++k)
    layers.push_back(
        &model.layers[static_cast<size_t>(model.approx_layer_index(k))]);

  // Per-worker elementwise sums of each approximable layer's int8 input
  // map over the worker's images: [approx ordinal][input element].
  using Maps = std::vector<std::vector<int64_t>>;
  Maps zero;
  for (const QLayer* layer : layers) {
    const PatchGeom g = patch_geom(*layer);
    zero.emplace_back(static_cast<size_t>(g.in_h) * g.in_w * g.taps_c, 0);
  }
  std::vector<Maps> maps(static_cast<size_t>(num_threads()), zero);

  // The exact model on the packed kernels (bit-exact with ref), batched
  // in chunks of two lane blocks, parallel over chunks.
  const ExecPlan plan = ExecPlan::compile(model);
  const PackedKernels packed(&model);
  constexpr int kChunk = 2 * kBatchLanes;
  const int chunks = (n + kChunk - 1) / kChunk;
  const int workers = parallel_for_indexed(0, chunks, [&](int w, int64_t c) {
    Maps& sums = maps[static_cast<size_t>(w)];
    const ConvTap tap = [&](int ordinal, const QLayer&,
                            std::span<const int8_t> in) {
      int64_t* sum = sums[static_cast<size_t>(ordinal)].data();
      for (size_t i = 0; i < in.size(); ++i) sum[i] += in[i];
    };
    std::vector<std::span<const uint8_t>> images;
    const int64_t end = std::min<int64_t>((c + 1) * kChunk, n);
    for (int64_t i = c * kChunk; i < end; ++i)
      images.push_back(calib.image(static_cast<int>(i)));
    std::vector<std::vector<int8_t>> logits;
    plan.run_batch(images, TapKernels(model, packed, tap), logits);
  });

  // Integer sums are exact and order-free, and every operand's total stays
  // far below 2^53, so each mean is one exact integer divided once — the
  // same bits for any worker count and any chunking.
  Maps& total = maps[0];
  for (int w = 1; w < workers; ++w)
    for (size_t k = 0; k < total.size(); ++k)
      for (size_t i = 0; i < total[k].size(); ++i)
        total[k][i] += maps[static_cast<size_t>(w)][k][i];

  std::vector<ConvInputStats> stats(static_cast<size_t>(approx_count));
  for (size_t k = 0; k < stats.size(); ++k) {
    const PatchGeom g = patch_geom(*layers[k]);
    std::vector<int64_t> sums(static_cast<size_t>(stats_len(*layers[k])), 0);
    accumulate_patch_sums(g, total[k], n, sums);
    ConvInputStats& s = stats[k];
    s.samples = static_cast<int64_t>(n) * g.out_h * g.out_w;
    check(s.samples > 0, "no positions captured");
    for (const int64_t v : sums)
      s.mean_corrected.push_back(static_cast<double>(v) /
                                 static_cast<double>(s.samples));
  }
  return stats;
}

}  // namespace ataman
