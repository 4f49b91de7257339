// q15 im2col: expands receptive fields of int8 activations to
// zero-point-corrected int16 — the "time-consuming pre-processing" the
// paper's unpacked kernels avoid (§II-B item 3).
//
// The one receptive-field expansion of the repo: packed conv, packed
// depthwise and every unpacked program read their operands from it. A
// depthwise layer expands as a conv with in_c = channels
// (QDepthwiseConv2D::expansion_geom), so channel ch of tap t sits at
// offset t * channels + ch. The host expands a block of kPosBlock
// consecutive output columns at once, operand-major, so every operand
// offset names kPosBlock contiguous q15 values (one per position) that
// the 8-lane SMLAD step (smlad8) reads with one load. The blocking is a
// host-speed device only: the priced instruction streams model one
// position at a time and no expansion buffer for unpacked programs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "src/cmsisnn/smlad.hpp"
#include "src/train/im2col.hpp"

namespace ataman {

// Fill `col` (g.patch_size() * kPosBlock int16 values) with output
// columns [ox0, ox0 + n) of row oy of one image `in`, n <= kPosBlock:
// col[offset * kPosBlock + p] holds operand `offset` ((ky,kx,in_c)
// order) of position ox0 + p. Padding taps and the unused lanes p >= n
// become 0 (== zero-point corrected), so every lane holds a defined value.
inline void im2col_block_q15(const ConvGeom& g, int32_t zero_point,
                             std::span<const int8_t> in, int oy, int ox0,
                             int n, int16_t* col) {
  const size_t tap_elems = static_cast<size_t>(g.in_c) * kPosBlock;
  for (int ky = 0; ky < g.kernel; ++ky) {
    const int iy = oy * g.stride - g.pad + ky;
    const bool row_inside = iy >= 0 && iy < g.in_h;
    for (int kx = 0; kx < g.kernel; ++kx, col += tap_elems) {
      for (int p = 0; p < kPosBlock; ++p) {
        const int ix = (ox0 + p) * g.stride - g.pad + kx;
        if (p >= n || !row_inside || ix < 0 || ix >= g.in_w) {
          for (int c = 0; c < g.in_c; ++c) col[c * kPosBlock + p] = 0;
          continue;
        }
        const int8_t* src =
            in.data() + (static_cast<size_t>(iy) * g.in_w + ix) * g.in_c;
        for (int c = 0; c < g.in_c; ++c) {
          col[c * kPosBlock + p] =
              static_cast<int16_t>(static_cast<int32_t>(src[c]) - zero_point);
        }
      }
    }
  }
}

}  // namespace ataman
