// q15 im2col: expands one receptive field of int8 activations to
// zero-point-corrected int16 — the "time-consuming pre-processing" the
// paper's unpacked kernels avoid (§II-B item 3).
//
// The one receptive-field expansion of the repo: packed conv, packed
// depthwise and every unpacked program read their operands from it. A
// depthwise layer expands as a conv with in_c = channels
// (QDepthwiseConv2D::expansion_geom), so channel ch of tap t sits at
// t * channels + ch. Defined inline so the kernels' lane loops keep an
// inlined copy loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "src/train/im2col.hpp"

namespace ataman {

// Fill `col` (g.patch_size() int16 values, (ky,kx,in_c) order) for
// output position (oy, ox) of one image `in`. Padding taps become 0
// (== zero-point corrected).
inline void im2col_patch_q15(const ConvGeom& g, int32_t zero_point,
                             std::span<const int8_t> in, int oy, int ox,
                             int16_t* col) {
  int idx = 0;
  for (int ky = 0; ky < g.kernel; ++ky) {
    const int iy = oy * g.stride - g.pad + ky;
    for (int kx = 0; kx < g.kernel; ++kx) {
      const int ix = ox * g.stride - g.pad + kx;
      const bool inside = iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w;
      const int8_t* src =
          inside ? in.data() + (static_cast<size_t>(iy) * g.in_w + ix) * g.in_c
                 : nullptr;
      for (int c = 0; c < g.in_c; ++c, ++idx) {
        const int32_t x = inside ? src[c] : zero_point;
        col[idx] = static_cast<int16_t>(x - zero_point);
      }
    }
  }
}

}  // namespace ataman
