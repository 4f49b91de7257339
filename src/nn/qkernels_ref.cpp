#include "src/nn/qkernels_ref.hpp"

#include "src/common/error.hpp"
#include "src/common/math_util.hpp"

namespace ataman {

int32_t conv_accumulate_ref(const QConv2D& layer, std::span<const int8_t> in,
                            int oy, int ox, int oc, const uint8_t* skip) {
  const ConvGeom& g = layer.geom;
  const int patch = g.patch_size();
  const int8_t* w =
      layer.weights.data() + static_cast<size_t>(oc) * patch;
  const uint8_t* sk =
      skip != nullptr ? skip + static_cast<size_t>(oc) * patch : nullptr;

  int32_t acc = layer.bias[static_cast<size_t>(oc)];
  int idx = 0;
  for (int ky = 0; ky < g.kernel; ++ky) {
    const int iy = oy * g.stride - g.pad + ky;
    for (int kx = 0; kx < g.kernel; ++kx) {
      const int ix = ox * g.stride - g.pad + kx;
      const bool inside = iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w;
      for (int c = 0; c < g.in_c; ++c, ++idx) {
        if (sk != nullptr && sk[idx]) continue;
        // Padding taps read the zero-point, i.e. real value 0.
        const int32_t x =
            inside ? in[(static_cast<size_t>(iy) * g.in_w + ix) * g.in_c + c]
                   : layer.in.zero_point;
        acc += (x - layer.in.zero_point) * static_cast<int32_t>(w[idx]);
      }
    }
  }
  return acc;
}

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

  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = cols.begin; ox < ox_end; ++ox) {
      int8_t* orow = out.data() + (static_cast<size_t>(oy) * ow + ox) * g.out_c;
      for (int oc = 0; oc < g.out_c; ++oc) {
        const int32_t acc = conv_accumulate_ref(layer, in, oy, ox, oc, skip);
        const int32_t scaled =
            multiply_by_quantized_multiplier(
                acc, layer.requant[static_cast<size_t>(oc)]) +
            layer.out.zero_point;
        orow[oc] = static_cast<int8_t>(
            std::clamp(scaled, layer.act_min, layer.act_max));
      }
    }
  }
}

int32_t depthwise_accumulate_ref(const QDepthwiseConv2D& layer,
                                 std::span<const int8_t> in, int oy, int ox,
                                 int ch, const uint8_t* skip) {
  const int patch = layer.patch_size();
  const uint8_t* sk =
      skip != nullptr ? skip + static_cast<size_t>(ch) * patch : nullptr;

  int32_t acc = layer.bias[static_cast<size_t>(ch)];
  int p = 0;
  for (int ky = 0; ky < layer.kernel; ++ky) {
    const int iy = oy * layer.stride - layer.pad + ky;
    for (int kx = 0; kx < layer.kernel; ++kx, ++p) {
      if (sk != nullptr && sk[p]) continue;
      const int ix = ox * layer.stride - layer.pad + kx;
      const bool inside =
          iy >= 0 && iy < layer.in_h && ix >= 0 && ix < layer.in_w;
      // Padding taps read the zero-point, i.e. real value 0.
      const int32_t x =
          inside ? in[(static_cast<size_t>(iy) * layer.in_w + ix) *
                          layer.channels +
                      ch]
                 : layer.in.zero_point;
      acc += (x - layer.in.zero_point) *
             static_cast<int32_t>(
                 layer.weights[dw_weight_index(ch, p, layer.channels)]);
    }
  }
  return acc;
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

  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = cols.begin; ox < ox_end; ++ox) {
      int8_t* orow =
          out.data() + (static_cast<size_t>(oy) * ow + ox) * layer.channels;
      for (int ch = 0; ch < layer.channels; ++ch) {
        const int32_t acc =
            depthwise_accumulate_ref(layer, in, oy, ox, ch, skip);
        const int32_t scaled =
            multiply_by_quantized_multiplier(
                acc, layer.requant[static_cast<size_t>(ch)]) +
            layer.out.zero_point;
        orow[ch] = static_cast<int8_t>(
            std::clamp(scaled, layer.act_min, layer.act_max));
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
  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox) {
      for (int ch = 0; ch < c; ++ch) {
        // Covering geometry is validated above, so every tap is inside.
        int8_t best = -128;
        for (int ky = 0; ky < layer.kernel; ++ky) {
          const int iy = oy * layer.stride + ky;
          for (int kx = 0; kx < layer.kernel; ++kx) {
            const int ix = ox * layer.stride + kx;
            best = std::max(
                best, in[(static_cast<size_t>(iy) * layer.in_w + ix) * c + ch]);
          }
        }
        out[(static_cast<size_t>(oy) * ow + ox) * c + ch] = best;
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
    int32_t acc = layer.bias[static_cast<size_t>(o)];
    for (int i = 0; i < layer.in_dim; ++i) {
      acc += (static_cast<int32_t>(in[static_cast<size_t>(i)]) -
              layer.in.zero_point) *
             static_cast<int32_t>(w[i]);
    }
    const int32_t scaled =
        multiply_by_quantized_multiplier(acc, layer.requant) +
        layer.out.zero_point;
    out[static_cast<size_t>(o)] =
        static_cast<int8_t>(std::clamp(scaled, layer.act_min, layer.act_max));
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
    const int32_t sum = multiply_by_quantized_multiplier(a, layer.requant_a) +
                        multiply_by_quantized_multiplier(b, layer.requant_b) +
                        layer.out.zero_point;
    out[static_cast<size_t>(i)] = static_cast<int8_t>(
        std::clamp(sum, layer.act_min, layer.act_max));
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
