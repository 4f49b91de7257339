// Packed (CMSIS-NN-style) kernels: the exact baseline of the paper [2].
//
// Convolution = q15 im2col + dual-MAC matrix multiply over offline-packed
// weight pairs (SMLAD), exactly the structure of arm_convolve_HWC_q7 /
// arm_nn_mat_mult_kernel_q7_q15. Numerics are bit-exact with the golden
// reference kernels (tests assert this across shapes); only the priced
// instruction stream differs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/quant/qtypes.hpp"

namespace ataman {

// Offline-packed weights for one conv/fc layer: per output channel,
// ceil(patch/2) SMLAD constants (pairs) plus an odd leftover flag.
struct PackedWeights {
  int patch = 0;        // operands per output channel
  int out_c = 0;
  int pairs_per_chan = 0;
  bool has_single = false;
  // [out_c][pairs_per_chan] SMLAD constants; lo lane = even operand.
  std::vector<uint32_t> pair_constants;
  // [out_c] leftover last operand (when patch is odd), as int16 lane.
  std::vector<int16_t> single_weights;

  static PackedWeights pack(std::span<const int8_t> weights, int out_c,
                            int patch);
};

// q15 working buffer of one kernel call: the caller's `scratch` when it
// holds `n` elements (the plan walker passes arena scratch, so warm runs
// never allocate), else an owned buffer. Contents are unspecified on
// entry; every kernel writes what it reads.
class Q15Scratch {
 public:
  Q15Scratch(std::span<int16_t> scratch, size_t n)
      : owned_(scratch.size() < n ? n : 0),
        buf_(scratch.size() < n ? std::span<int16_t>(owned_)
                                : scratch.first(n)) {}
  Q15Scratch(const Q15Scratch&) = delete;
  Q15Scratch& operator=(const Q15Scratch&) = delete;

  int16_t* data() const { return buf_.data(); }
  int16_t& operator[](size_t i) const { return buf_[i]; }
  void zero() const { std::fill(buf_.begin(), buf_.end(), int16_t{0}); }

 private:
  std::vector<int16_t> owned_;
  std::span<int16_t> buf_;
};

// Images per accumulator block: four int32 accumulators span one 128-bit
// SSE/NEON register, so the fixed-trip-count lane loops auto-vectorize.
inline constexpr int kBatchLanes = 4;

// Every kernel below runs a contiguous batch of `batch` images: image b
// lives at in + b * in_elems and out + b * out_elems. Numerics are
// bitwise identical to running each image alone (int32 accumulation is
// exact, so only the operand walk order changes): the batch is folded
// into the GEMM N dimension in lane-blocks of kBatchLanes images, each
// weight pair constant is loaded once and multiplied into kBatchLanes
// independent accumulators (the SMLAD dual-MAC idiom widened to SSE/NEON
// register width), and the requantize epilogue runs per lane-block.
// Ragged tails are handled by computing all kBatchLanes lanes over a
// zero-padded column block and storing only the live ones, so every
// inner loop has a constant trip count; a single image runs one lane.
// `scratch` is optional q15 working memory (see Q15Scratch; results never
// depend on it). The conv and depthwise kernels compute only the output
// columns in `range`.
void packed_conv2d(const QConv2D& layer, const PackedWeights& packed,
                   std::span<const int8_t> in, std::span<int8_t> out,
                   int batch = 1, std::span<int16_t> scratch = {},
                   ColumnRange range = {});

// Depthwise loop kernel in the arm_depthwise_conv_s8 shape: one shared
// zero-point-corrected q15 patch expansion per output position, then a
// scalar per-channel tap loop. The expansion is the conv one
// (im2col_patch_q15) over expansion_geom(): taps x channels, channel
// innermost, so channel ch of tap t sits at t * channels + ch — the
// [k][k][c] weight order. Per-channel filters cannot feed the
// dual-MAC path (two weights of one SMLAD would hit two different
// accumulators), which is why no PackedWeights stream exists for it —
// exactly CMSIS-NN's structure, and priced accordingly
// (CortexM33CostTable::packed_depthwise_per_mac). Bit-exact with
// depthwise_conv2d_ref.
void packed_depthwise_conv2d(const QDepthwiseConv2D& layer,
                             std::span<const int8_t> in, std::span<int8_t> out,
                             int batch = 1, std::span<int16_t> scratch = {},
                             ColumnRange range = {});

void packed_dense(const QDense& layer, const PackedWeights& packed,
                  std::span<const int8_t> in, std::span<int8_t> out,
                  int batch = 1, std::span<int16_t> scratch = {});

}  // namespace ataman
