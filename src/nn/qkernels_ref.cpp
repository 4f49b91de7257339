#include "src/nn/qkernels_ref.hpp"

#include <array>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/math_util.hpp"

namespace ataman {

namespace {

// Kernel taps [k0, k1) of output coordinate `o` whose input coordinate
// o * stride - pad + k lies inside [0, extent). The other taps read
// padding: their input is the zero point, so each adds exactly 0.
struct TapRange {
  int k0, k1;
};

TapRange in_image_taps(int o, int stride, int pad, int kernel, int extent) {
  const int base = o * stride - pad;
  const int k0 = std::clamp(-base, 0, kernel);
  return {k0, std::clamp(extent - base, k0, kernel)};
}

// Weight `w` of an operand, or 0 if `skipped` is nonzero: a byte mask, so
// the loops below stay branch-free and vectorize.
int8_t kept(int8_t w, uint8_t skipped) {
  return static_cast<int8_t>(w & (skipped == 0 ? -1 : 0));
}

// Sum of (x[i] - zp) * w[i] over n contiguous operands, leaving out those
// with sk[i] set (sk may be nullptr).
int32_t dot_run(const int8_t* x, const int8_t* w, const uint8_t* sk, int n,
                int32_t zp) {
  int32_t acc = 0;
  if (sk == nullptr) {
    for (int i = 0; i < n; ++i) acc += (x[i] - zp) * w[i];
  } else {
    for (int i = 0; i < n; ++i) acc += (x[i] - zp) * kept(w[i], sk[i]);
  }
  return acc;
}

// Depthwise channels accumulated together per window pass, on the stack.
constexpr int kDepthwiseBlock = 64;
// Taps of a masked depthwise block whose weights fit the stack copy (a
// kernel up to 11 x 11); a larger kernel copies to the heap.
constexpr int kDepthwiseStackTaps = 121;

}  // namespace

void conv2d_ref(const QConv2D& layer, std::span<const int8_t> in,
                std::span<int8_t> out, const uint8_t* skip, ColumnRange cols) {
  const ConvGeom& g = layer.geom;
  check(static_cast<int64_t>(in.size()) ==
            static_cast<int64_t>(g.in_h) * g.in_w * g.in_c,
        "conv input size mismatch");
  check(static_cast<int64_t>(out.size()) ==
            static_cast<int64_t>(g.positions()) * g.out_c,
        "conv output size mismatch");
  const int oh = g.out_h(), ow = g.out_w(), ox_end = cols.end_within(ow);
  check(cols.begin >= 0 && cols.begin <= ox_end,
        "conv column range out of bounds");

  // Weights are [oc][ky][kx][c] and the input HWC, so the in-image taps
  // of one kernel row are one contiguous run of operands in both.
  const size_t patch = static_cast<size_t>(g.patch_size());
  const int32_t zp = layer.in.zero_point;
  for (int oy = 0; oy < oh; ++oy) {
    const TapRange ty = in_image_taps(oy, g.stride, g.pad, g.kernel, g.in_h);
    for (int ox = cols.begin; ox < ox_end; ++ox) {
      const TapRange tx =
          in_image_taps(ox, g.stride, g.pad, g.kernel, g.in_w);
      const int run = (tx.k1 - tx.k0) * g.in_c;
      const int ix0 = ox * g.stride - g.pad + tx.k0;
      // A window wholly left or right of the image (pad > kernel) visits
      // no row, so no pointer is formed from an ix0 outside the row.
      const int ky_end = run > 0 ? ty.k1 : ty.k0;
      int8_t* orow = out.data() + (static_cast<size_t>(oy) * ow + ox) * g.out_c;
      for (int oc = 0; oc < g.out_c; ++oc) {
        int32_t acc = layer.bias[static_cast<size_t>(oc)];
        for (int ky = ty.k0; ky < ky_end; ++ky) {
          const int iy = oy * g.stride - g.pad + ky;
          const size_t op = static_cast<size_t>(oc) * patch +
                            static_cast<size_t>(ky * g.kernel + tx.k0) * g.in_c;
          acc += dot_run(
              in.data() + (static_cast<size_t>(iy) * g.in_w + ix0) * g.in_c,
              layer.weights.data() + op, skip != nullptr ? skip + op : nullptr,
              run, zp);
        }
        orow[oc] = requant_clamp(acc, layer.requant[static_cast<size_t>(oc)],
                                 layer.out.zero_point, layer.act_min,
                                 layer.act_max);
      }
    }
  }
}

void depthwise_conv2d_ref(const QDepthwiseConv2D& layer,
                          std::span<const int8_t> in, std::span<int8_t> out,
                          const uint8_t* skip, ColumnRange cols) {
  check(static_cast<int64_t>(in.size()) ==
            static_cast<int64_t>(layer.in_h) * layer.in_w * layer.channels,
        "depthwise input size mismatch");
  check(static_cast<int64_t>(out.size()) ==
            static_cast<int64_t>(layer.positions()) * layer.channels,
        "depthwise output size mismatch");
  const int oh = layer.out_h(), ow = layer.out_w();
  const int ox_end = cols.end_within(ow);
  check(cols.begin >= 0 && cols.begin <= ox_end,
        "depthwise column range out of bounds");

  // Weights are [tap][ch] and the input HWC, so with the channels
  // innermost both operands of a tap are contiguous. The skip mask is
  // [ch][tap], its flags for one tap `patch` apart: a masked call first
  // copies each block's weights to [tap][ch] on the stack with the
  // skipped ones zeroed, so its tap loop is the unmasked one.
  const int c_n = layer.channels, patch = layer.patch_size();
  const int32_t zp = layer.in.zero_point;
  std::array<int8_t, kDepthwiseBlock * kDepthwiseStackTaps> stack_w;
  std::vector<int8_t> heap_w(
      skip != nullptr && patch > kDepthwiseStackTaps
          ? static_cast<size_t>(patch) * kDepthwiseBlock
          : 0);
  int8_t* masked = heap_w.empty() ? stack_w.data() : heap_w.data();
  int32_t acc[kDepthwiseBlock];
  for (int c0 = 0; c0 < c_n; c0 += kDepthwiseBlock) {
    const int n = std::min(kDepthwiseBlock, c_n - c0);
    // Tap p's weights for the block: w + p * w_stride.
    const int8_t* w = layer.weights.data() + c0;
    size_t w_stride = static_cast<size_t>(c_n);
    if (skip != nullptr) {
      for (int p = 0; p < patch; ++p) {
        for (int j = 0; j < n; ++j) {
          const size_t op = static_cast<size_t>(c0 + j) * patch + p;
          masked[static_cast<size_t>(p) * kDepthwiseBlock + j] =
              kept(layer.weights[dw_weight_index(c0 + j, p, c_n)], skip[op]);
        }
      }
      w = masked;
      w_stride = kDepthwiseBlock;
    }
    for (int oy = 0; oy < oh; ++oy) {
      const TapRange ty = in_image_taps(oy, layer.stride, layer.pad,
                                        layer.kernel, layer.in_h);
      for (int ox = cols.begin; ox < ox_end; ++ox) {
        const TapRange tx = in_image_taps(ox, layer.stride, layer.pad,
                                          layer.kernel, layer.in_w);
        for (int j = 0; j < n; ++j)
          acc[j] = layer.bias[static_cast<size_t>(c0 + j)];
        for (int ky = ty.k0; ky < ty.k1; ++ky) {
          const int iy = oy * layer.stride - layer.pad + ky;
          for (int kx = tx.k0; kx < tx.k1; ++kx) {
            const int ix = ox * layer.stride - layer.pad + kx;
            const int8_t* x =
                in.data() +
                (static_cast<size_t>(iy) * layer.in_w + ix) * c_n + c0;
            const int8_t* wp =
                w + static_cast<size_t>(ky * layer.kernel + kx) * w_stride;
            for (int j = 0; j < n; ++j) acc[j] += (x[j] - zp) * wp[j];
          }
        }
        int8_t* orow =
            out.data() + (static_cast<size_t>(oy) * ow + ox) * c_n + c0;
        for (int j = 0; j < n; ++j)
          orow[j] = requant_clamp(
              acc[j], layer.requant[static_cast<size_t>(c0 + j)],
              layer.out.zero_point, layer.act_min, layer.act_max);
      }
    }
  }
}

void maxpool_ref(const QMaxPool& layer, std::span<const int8_t> in,
                 std::span<int8_t> out) {
  const int oh = layer.out_h(), ow = layer.out_w(), c = layer.channels;
  validate_pool_geometry(layer.in_h, layer.in_w, layer.kernel, layer.stride,
                         "maxpool_ref");
  check(static_cast<int64_t>(in.size()) ==
            static_cast<int64_t>(layer.in_h) * layer.in_w * c,
        "pool input size mismatch");
  check(static_cast<int64_t>(out.size()) ==
            static_cast<int64_t>(oh) * ow * c,
        "pool output size mismatch");
  // Channels innermost: each tap is one contiguous run of `c` values in
  // the HWC input, maxed into the output position's run.
  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox) {
      int8_t* best = out.data() + (static_cast<size_t>(oy) * ow + ox) * c;
      std::fill_n(best, c, int8_t{-128});
      // Covering geometry is validated above, so every tap is inside.
      for (int ky = 0; ky < layer.kernel; ++ky) {
        const int iy = oy * layer.stride + ky;
        for (int kx = 0; kx < layer.kernel; ++kx) {
          const int ix = ox * layer.stride + kx;
          const int8_t* x =
              in.data() + (static_cast<size_t>(iy) * layer.in_w + ix) * c;
          for (int ch = 0; ch < c; ++ch) best[ch] = std::max(best[ch], x[ch]);
        }
      }
    }
  }
}

void avgpool_ref(const QAvgPool& layer, std::span<const int8_t> in,
                 std::span<int8_t> out) {
  const int oh = layer.out_h(), ow = layer.out_w(), c = layer.channels;
  validate_pool_geometry(layer.in_h, layer.in_w, layer.kernel, layer.stride,
                         "avgpool_ref");
  check(static_cast<int64_t>(in.size()) ==
            static_cast<int64_t>(layer.in_h) * layer.in_w * c,
        "pool input size mismatch");
  check(static_cast<int64_t>(out.size()) ==
            static_cast<int64_t>(oh) * ow * c,
        "pool output size mismatch");
  const int32_t count = layer.kernel * layer.kernel;
  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox) {
      for (int ch = 0; ch < c; ++ch) {
        int32_t sum = 0;
        for (int ky = 0; ky < layer.kernel; ++ky) {
          const int iy = oy * layer.stride + ky;
          for (int kx = 0; kx < layer.kernel; ++kx) {
            const int ix = ox * layer.stride + kx;
            sum += in[(static_cast<size_t>(iy) * layer.in_w + ix) * c + ch];
          }
        }
        // Round half away from zero (TFLite AVERAGE_POOL_2D).
        const int32_t avg =
            sum >= 0 ? (sum + count / 2) / count : (sum - count / 2) / count;
        out[(static_cast<size_t>(oy) * ow + ox) * c + ch] =
            saturate_int8(avg);
      }
    }
  }
}

void dense_ref(const QDense& layer, std::span<const int8_t> in,
               std::span<int8_t> out) {
  check(static_cast<int>(in.size()) == layer.in_dim, "dense input mismatch");
  check(static_cast<int>(out.size()) == layer.out_dim, "dense output mismatch");
  for (int o = 0; o < layer.out_dim; ++o) {
    const int8_t* w =
        layer.weights.data() + static_cast<size_t>(o) * layer.in_dim;
    const int32_t acc =
        layer.bias[static_cast<size_t>(o)] +
        dot_run(in.data(), w, nullptr, layer.in_dim, layer.in.zero_point);
    out[static_cast<size_t>(o)] =
        requant_clamp(acc, layer.requant, layer.out.zero_point,
                      layer.act_min, layer.act_max);
  }
}

void qadd_ref(const QAdd& layer, std::span<const int8_t> in_a,
              std::span<const int8_t> in_b, std::span<int8_t> out) {
  const int64_t n = layer.elems();
  check(static_cast<int64_t>(in_a.size()) == n &&
            static_cast<int64_t>(in_b.size()) == n &&
            static_cast<int64_t>(out.size()) == n,
        "qadd tensor size mismatch");
  for (int64_t i = 0; i < n; ++i) {
    const int32_t a = static_cast<int32_t>(in_a[static_cast<size_t>(i)]) -
                      layer.in_a.zero_point;
    const int32_t b = static_cast<int32_t>(in_b[static_cast<size_t>(i)]) -
                      layer.in_b.zero_point;
    // Summed in int64: two requantized operands near an int32 limit (a
    // large QAdd ratio saturates them there) overflow an int32 sum.
    const int64_t sum =
        int64_t{multiply_by_quantized_multiplier(a, layer.requant_a)} +
        multiply_by_quantized_multiplier(b, layer.requant_b) +
        layer.out.zero_point;
    out[static_cast<size_t>(i)] = static_cast<int8_t>(
        std::clamp<int64_t>(sum, layer.act_min, layer.act_max));
  }
}

void run_layer_ref(const QLayer& layer, std::span<const int8_t> in_a,
                   std::span<const int8_t> in_b, std::span<int8_t> out,
                   const uint8_t* skip, ColumnRange cols) {
  if (const auto* conv = std::get_if<QConv2D>(&layer)) {
    conv2d_ref(*conv, in_a, out, skip, cols);
  } else if (const auto* dw = std::get_if<QDepthwiseConv2D>(&layer)) {
    depthwise_conv2d_ref(*dw, in_a, out, skip, cols);
  } else if (const auto* pool = std::get_if<QMaxPool>(&layer)) {
    maxpool_ref(*pool, in_a, out);
  } else if (const auto* pool = std::get_if<QAvgPool>(&layer)) {
    avgpool_ref(*pool, in_a, out);
  } else if (const auto* fc = std::get_if<QDense>(&layer)) {
    dense_ref(*fc, in_a, out);
  } else if (const auto* add = std::get_if<QAdd>(&layer)) {
    qadd_ref(*add, in_a, in_b, out);
  }
}

}  // namespace ataman
