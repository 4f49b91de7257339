// Packed (CMSIS-NN-style) kernels: the exact baseline of the paper [2].
//
// Convolution = dual-MAC matrix multiply over offline-packed weight pairs
// (SMLAD) on zero-point-corrected q15 operands: on the MCU, the structure
// of arm_convolve_HWC_q7 / arm_nn_mat_mult_kernel_q7_q15 (q15 im2col,
// priced as such); on the host, operands are read in place from one
// planar q15 copy of the input (PlanarLayout). Numerics are bit-exact
// with the golden reference kernels (tests assert this across shapes);
// only the priced instruction stream differs.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "src/cmsisnn/smlad.hpp"
#include "src/common/error.hpp"
#include "src/common/fixed_point.hpp"
#include "src/common/math_util.hpp"
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

 private:
  std::vector<int16_t> owned_;
  std::span<int16_t> buf_;
};

// The planar q15 copy every conv-shaped host kernel reads its operands
// from in place: one zero-point-corrected, zero-padded copy of each
// image, channel-planar and split by stride phase,
// [in_c][stride][rows][cols]. Column q of phase r holds padded input
// column q * stride + r, so the kPosBlock positions (oy, ox0 + p) of
// operand (ky, kx, c) are the contiguous values at
// block_base(oy, ox0) + operand_offset(ky, kx, c). `rows` covers the
// padded rows the output reads; `cols` the columns of a block starting
// at any ox0 < out_w, plus the kernel's reach. This is a host-speed
// layout only: the priced instruction streams model one position at a
// time (packed: the MCU's im2col; unpacked: direct activation loads).
struct PlanarLayout {
  int stride = 1;
  int rows = 0;
  int cols = 0;
  size_t lane_elems = 0;  // one image's copy: in_c * stride planes

  explicit PlanarLayout(const ConvGeom& g)
      : stride(g.stride),
        rows(g.out_h() > 0 ? (g.out_h() - 1) * g.stride + g.kernel : 0),
        cols(g.out_w() > 0
                 ? g.out_w() + kPosBlock - 1 + (g.kernel - 1) / g.stride
                 : 0),
        lane_elems(static_cast<size_t>(g.in_c) * g.stride * rows * cols) {}

  size_t operand_offset(int ky, int kx, int c) const {
    return ((static_cast<size_t>(c) * stride + kx % stride) * rows + ky) *
               cols +
           static_cast<size_t>(kx / stride);
  }
  size_t block_base(int oy, int ox0) const {
    return static_cast<size_t>(oy) * stride * cols + ox0;
  }
};

// q15 scratch of one conv-shaped kernel call that copies `lanes` images
// (min(batch, kBatchLanes)): the operand offset table (one 32-bit
// offset per patch operand, in two q15 slots) followed by `lanes`
// planar copies. The plan sizes its arena scratch from this, so warm
// runs never allocate.
inline size_t conv_scratch_elems(const ConvGeom& g, int lanes) {
  return 2 * static_cast<size_t>(g.patch_size()) +
         static_cast<size_t>(lanes) * PlanarLayout(g).lane_elems;
}

// Writes columns [q0, q1) of every row of image `in`'s planar copy
// `dst`: in - zero_point inside the image, 0 for padding.
inline void planar_copy_q15(const ConvGeom& g, const PlanarLayout& p,
                            int32_t zero_point, const int8_t* in, int q0,
                            int q1, int16_t* dst) {
  const int s = g.stride;
  const size_t in_row = static_cast<size_t>(g.in_w) * g.in_c;
  const size_t step = static_cast<size_t>(s) * g.in_c;
  for (int r = 0; r < s; ++r) {
    // Column q of phase r reads input column q * s + r - pad: [lo, hi)
    // of [q0, q1) lies inside the image.
    const int lo = std::clamp((std::max(0, g.pad - r) + s - 1) / s, q0, q1);
    const int hi = std::clamp((g.in_w + g.pad - r + s - 1) / s, lo, q1);
    for (int py = 0; py < p.rows; ++py) {
      const int iy = py - g.pad;
      const bool inside = iy >= 0 && iy < g.in_h && lo < hi;
      const int8_t* row =
          inside ? in + static_cast<size_t>(iy) * in_row +
                       static_cast<size_t>(lo * s + r - g.pad) * g.in_c
                 : nullptr;
      for (int c = 0; c < g.in_c; ++c) {
        int16_t* d =
            dst + ((static_cast<size_t>(c) * s + r) * p.rows + py) * p.cols;
        if (!inside) {
          std::fill(d + q0, d + q1, int16_t{0});
          continue;
        }
        std::fill(d + q0, d + lo, int16_t{0});
        const int8_t* src = row + c;
        for (int q = lo; q < hi; ++q, src += step) {
          d[q] = static_cast<int16_t>(static_cast<int32_t>(*src) -
                                      zero_point);
        }
        std::fill(d + hi, d + q1, int16_t{0});
      }
    }
  }
}

#if defined(__SSE2__)
// multiply_by_quantized_multiplier on four lanes for 0 <= mult and
// -31 <= shift <= 0 (`mult` broadcast). For mult >= 0 both nudge branches
// of saturating_rounding_doubling_high_mul equal (a * mult + 2^30) >> 31
// (floor), and its one saturating case needs mult = INT32_MIN.
inline __m128i requant4(__m128i a, __m128i mult, int shift) {
  // _mm_mul_epu32 is unsigned: a ^ INT32_MIN reads as a + 2^31 >= 0, so
  // the product is a * mult + 2^31 * mult, mult too large after the
  // shift by 31, whatever a's sign. The nudged product stays below 2^63
  // and its bits 31..62 fit in the low half.
  const __m128i nudge = _mm_set1_epi64x(int64_t{1} << 30);
  const __m128i biased = _mm_xor_si128(a, _mm_set1_epi32(INT32_MIN));
  const __m128i even = _mm_srli_epi64(
      _mm_add_epi64(_mm_mul_epu32(biased, mult), nudge), 31);
  const __m128i odd = _mm_srli_epi64(
      _mm_add_epi64(_mm_mul_epu32(_mm_srli_epi64(biased, 32), mult), nudge),
      31);
  const __m128i x =
      _mm_sub_epi32(_mm_or_si128(even, _mm_slli_epi64(odd, 32)), mult);
  // rounding_divide_by_pot(x, -shift): x >> -shift, plus 1 where the
  // remainder x & mask exceeds the threshold (mask >> 1, + 1 for x < 0).
  const int32_t mask = static_cast<int32_t>((int64_t{1} << -shift) - 1);
  const __m128i threshold =
      _mm_sub_epi32(_mm_set1_epi32(mask >> 1), _mm_srai_epi32(x, 31));
  const __m128i round_up = _mm_cmpgt_epi32(
      _mm_and_si128(x, _mm_set1_epi32(mask)), threshold);
  return _mm_sub_epi32(_mm_sra_epi32(x, _mm_cvtsi32_si128(-shift)), round_up);
}
#endif

// requant_clamp on each of the eight accumulators of a block step.
// On SSE2 hosts eight lanes at a time, bit-exact, wherever requant4
// applies and out_zp and the activation range lie in int8 (as every
// calibrated layer's do). requant_clamp stays the definition and runs
// everywhere else.
inline void requant8(const Acc8& acc, const QuantizedMultiplier& requant,
                     int32_t out_zp, int32_t act_min, int32_t act_max,
                     int8_t out[kPosBlock]) {
#if defined(__SSE2__)
  if (requant.mult >= 0 && requant.shift <= 0 && requant.shift >= -31 &&
      out_zp >= -128 && out_zp <= 127 && act_min >= -128 &&
      act_min <= act_max && act_max <= 127) {
    // The clamp runs on int16 lanes: a scaled value beyond int16
    // saturates there, and so does its sum with the zero point, both on
    // the side the activation range clamps them to.
    const __m128i mult = _mm_set1_epi32(requant.mult);
    __m128i q16 = _mm_packs_epi32(requant4(acc.lo, mult, requant.shift),
                                  requant4(acc.hi, mult, requant.shift));
    q16 = _mm_adds_epi16(q16, _mm_set1_epi16(static_cast<int16_t>(out_zp)));
    q16 = _mm_min_epi16(
        _mm_max_epi16(q16, _mm_set1_epi16(static_cast<int16_t>(act_min))),
        _mm_set1_epi16(static_cast<int16_t>(act_max)));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out),
                     _mm_packs_epi16(q16, q16));
    return;
  }
#endif
  int32_t sums[kPosBlock];
  acc8_store(acc, sums);
  for (int p = 0; p < kPosBlock; ++p)
    out[p] = requant_clamp(sums[p], requant, out_zp, act_min, act_max);
}

// The accumulators of one block step: kBatchLanes lanes of kPosBlock
// output columns each. lane[j] is lane j's block base in its image's
// planar copy and `offsets` the call's operand offset table (32-bit
// words in q15 storage, read through memcpy).
struct BlockAcc {
  std::array<const int16_t*, kBatchLanes> lane{};
  const int16_t* offsets = nullptr;
  std::array<Acc8, kBatchLanes> acc{};

  void reset(int32_t bias) { acc.fill(acc8_splat(bias)); }
  // One SMLAD step on operands a (low lane) and b (high lane).
  void mac(uint32_t w, size_t a, size_t b) {
    const uint32_t oa = offset(a);
    const uint32_t ob = offset(b);
    for (int j = 0; j < kBatchLanes; ++j)
      smlad8(w, lane[j] + oa, lane[j] + ob, acc[j]);
  }
  // One SMLABB step: a zero high weight lane makes SMLAD SMLABB.
  void mac_single(int16_t w, size_t a) { mac(pack_q15_pair(0, w), a, a); }

 private:
  uint32_t offset(size_t operand) const {
    uint32_t off = 0;
    std::memcpy(&off, offsets + 2 * operand, sizeof off);
    return off;
  }
};

// The one loop of every conv-shaped host kernel (packed conv, packed
// depthwise, unpacked programs) over a contiguous batch: image b at
// in + b * in_elems and outs[k] + b * out_elems of geometry `g`. An
// empty outs[k] is never written. Per chunk of up to kBatchLanes images
// it writes each image's planar copy once (only the columns the blocks
// inside `range` read). A *block* is one (image, output row, block of
// up to kPosBlock columns) of the chunk; blocks run kBatchLanes at a
// time as the lanes of one BlockAcc, so one image's rows and column
// blocks fill the lanes as readily as a batch's images. Per lane group
// it calls `channel(oc, block, store)` per output channel; `channel`
// accumulates into `block` and calls `store(k, requant)` to store the
// accumulators into outs[k] under the multiplier `requant` — once at
// the end, or once per rung of a rung program. `store` requantizes each
// lane's eight positions at once (requant8) and writes the live
// positions of the live lanes. A ragged group computes every lane (a
// dead lane rereads lane 0's block, a dead column reads a written
// padding or input value) and stores only the live ones; int32
// accumulation wraps, so the walk order never changes a bit.
template <typename Channel>
void run_conv_blocks(const ConvGeom& g, int32_t in_zp, int32_t out_zp,
                     int32_t act_min, int32_t act_max,
                     std::span<const int8_t> in,
                     std::span<const std::span<int8_t>> outs, int batch,
                     std::span<int16_t> scratch, ColumnRange range,
                     const Channel& channel) {
  check(batch >= 1, "conv kernel: batch must be >= 1");
  const size_t in_elems = static_cast<size_t>(g.in_h) * g.in_w * g.in_c;
  const size_t out_elems = static_cast<size_t>(g.positions()) * g.out_c;
  check(in.size() == in_elems * static_cast<size_t>(batch),
        "batched conv input size mismatch");
  for (const std::span<int8_t> out : outs) {
    check(out.empty() || out.size() == out_elems * static_cast<size_t>(batch),
          "batched conv output size mismatch");
  }
  const int ow = g.out_w();
  const int ox_end = range.end_within(ow);
  if (range.begin >= ox_end) return;

  const PlanarLayout layout(g);
  const Q15Scratch buf(
      scratch, conv_scratch_elems(g, std::min(batch, kBatchLanes)));
  // The operand offset table (operand i = (ky * k + kx) * in_c + c, the
  // patch order), then the planar copies.
  int16_t* planes = buf.data();
  for (int ky = 0; ky < g.kernel; ++ky) {
    for (int kx = 0; kx < g.kernel; ++kx) {
      for (int c = 0; c < g.in_c; ++c, planes += 2) {
        const auto off =
            static_cast<uint32_t>(layout.operand_offset(ky, kx, c));
        std::memcpy(planes, &off, sizeof off);
      }
    }
  }
  // The last block starts before ox_end and reads kPosBlock columns plus
  // the kernel's reach: q1 <= out_w + kPosBlock - 1 + (k - 1) / stride,
  // which is layout.cols.
  const int q0 = range.begin;
  const int col_blocks = static_cast<int>(ceil_div(ox_end - q0, kPosBlock));
  const int q1 = q0 + col_blocks * kPosBlock + (g.kernel - 1) / g.stride;

  BlockAcc block;
  block.offsets = buf.data();
  std::array<size_t, kBatchLanes> out_off{};  // lane's first output
  std::array<int, kBatchLanes> width{};       // lane's live columns
  for (int b0 = 0; b0 < batch; b0 += kBatchLanes) {
    const int bn = std::min(kBatchLanes, batch - b0);
    for (int j = 0; j < bn; ++j) {
      planar_copy_q15(g, layout, in_zp,
                      in.data() + static_cast<size_t>(b0 + j) * in_elems, q0,
                      q1, planes + static_cast<size_t>(j) * layout.lane_elems);
    }
    // Blocks in (row, column block, image) order, the image innermost:
    // a full chunk's lanes share one position, one image's lanes are
    // neighbouring column blocks and rows.
    const int blocks = g.out_h() * col_blocks * bn;
    for (int t0 = 0; t0 < blocks; t0 += kBatchLanes) {
      const int live = std::min(kBatchLanes, blocks - t0);
      for (int j = 0; j < kBatchLanes; ++j) {
        const int t = t0 + (j < live ? j : 0);
        const int img = t % bn;
        const int oy = t / bn / col_blocks;
        const int ox0 = q0 + t / bn % col_blocks * kPosBlock;
        const auto lane = static_cast<size_t>(j);
        block.lane[lane] = planes +
                           static_cast<size_t>(img) * layout.lane_elems +
                           layout.block_base(oy, ox0);
        out_off[lane] = static_cast<size_t>(b0 + img) * out_elems +
                        (static_cast<size_t>(oy) * ow + ox0) * g.out_c;
        width[lane] = std::min(kPosBlock, ox_end - ox0);
      }
      for (int oc = 0; oc < g.out_c; ++oc) {
        const auto store = [&](size_t k, const QuantizedMultiplier& requant) {
          for (size_t j = 0; j < static_cast<size_t>(live); ++j) {
            int8_t q[kPosBlock];
            requant8(block.acc[j], requant, out_zp, act_min, act_max, q);
            int8_t* dst = outs[k].data() + out_off[j] + static_cast<size_t>(oc);
            for (int p = 0; p < width[j]; ++p)
              dst[static_cast<size_t>(p) * g.out_c] = q[p];
          }
        };
        channel(oc, block, store);
      }
    }
  }
}

// Every kernel below runs a contiguous batch of `batch` images: image b
// lives at in + b * in_elems and out + b * out_elems. Numerics are
// bitwise identical to running each image alone and to the reference
// kernels. Conv and depthwise run through run_conv_blocks: kBatchLanes
// blocks of kPosBlock output columns per SMLAD step, drawn from any
// image and row, and compute only the output columns in `range`.
// `scratch` is optional q15 working memory (see Q15Scratch; results
// never depend on it). The host blocking changes no priced
// number: the cost model prices the MCU's one-position instruction
// stream.
void packed_conv2d(const QConv2D& layer, const PackedWeights& packed,
                   std::span<const int8_t> in, std::span<int8_t> out,
                   int batch = 1, std::span<int16_t> scratch = {},
                   ColumnRange range = {});

// Depthwise loop kernel in the arm_depthwise_conv_s8 shape: one shared
// zero-point-corrected q15 expansion per output position, then a
// per-channel tap loop. Operands are numbered as in the conv expansion
// over expansion_geom(): taps x channels, channel innermost, so channel
// ch of tap t is operand t * channels + ch — the [k][k][c] weight order;
// the host reads them from the planar copy of that geometry. On
// the MCU, per-channel filters cannot feed the dual-MAC path over
// adjacent operands (two weights of one SMLAD would hit two different
// accumulators), which is why no PackedWeights stream exists for it —
// exactly CMSIS-NN's structure, and priced accordingly
// (kM33Costs.packed_depthwise_per_mac). The host pairs two taps
// of the same channel per smlad8 step instead (both hit that channel's
// accumulator). Bit-exact with depthwise_conv2d_ref.
void packed_depthwise_conv2d(const QDepthwiseConv2D& layer,
                             std::span<const int8_t> in, std::span<int8_t> out,
                             int batch = 1, std::span<int16_t> scratch = {},
                             ColumnRange range = {});

// The expanded input vectors of up to kBatchLanes images against each
// packed weight row (smlad_dot_lanes; smlad_dot for a lone image), so a
// batch loads each row once per kBatchLanes images. `scratch` holds
// min(batch, kBatchLanes) expanded vectors, as for the conv kernels.
void packed_dense(const QDense& layer, const PackedWeights& packed,
                  std::span<const int8_t> in, std::span<int8_t> out,
                  int batch = 1, std::span<int16_t> scratch = {});

}  // namespace ataman
