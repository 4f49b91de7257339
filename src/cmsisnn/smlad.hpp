// Simulated ARMv8-M DSP-extension semantics used by the packed kernels.
//
// The paper's kernels revolve around SMLAD ("signed multiply accumulate
// dual"): two 16-bit lane products accumulated into a 32-bit register in
// one cycle. Offline weight packing concatenates two sign-extended int8
// weights into one 32-bit constant — the paper's own example: w1=64 and
// w2=20 pack to 64*2^16 + 20 = 4194324 (§II-B item 3). These helpers
// reproduce the instruction semantics exactly so host tests can assert
// bit-exactness of every packed/unpacked kernel.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace ataman {

// Two int8 values sign-extended to int16 and packed, `hi` in bits 31:16.
// pack_weight_pair(64, 20) == 4194324, matching the paper.
constexpr uint32_t pack_weight_pair(int8_t hi, int8_t lo) {
  const uint16_t hi16 = static_cast<uint16_t>(static_cast<int16_t>(hi));
  const uint16_t lo16 = static_cast<uint16_t>(static_cast<int16_t>(lo));
  return (static_cast<uint32_t>(hi16) << 16) | lo16;
}

constexpr int16_t lane_lo(uint32_t packed) {
  return static_cast<int16_t>(packed & 0xFFFFu);
}

constexpr int16_t lane_hi(uint32_t packed) {
  return static_cast<int16_t>(packed >> 16);
}

// Pack two int16 lanes (e.g. zero-point-corrected activations).
constexpr uint32_t pack_q15_pair(int16_t hi, int16_t lo) {
  return (static_cast<uint32_t>(static_cast<uint16_t>(hi)) << 16) |
         static_cast<uint16_t>(lo);
}

// __SMLAD: acc + lo(x)*lo(y) + hi(x)*hi(y). Wraparound on overflow like
// the hardware instruction (accumulations here are range-checked by
// construction: |acc| < 2^30 for every supported layer geometry).
constexpr int32_t smlad(uint32_t x, uint32_t y, int32_t acc) {
  return static_cast<int32_t>(
      static_cast<uint32_t>(acc) +
      static_cast<uint32_t>(static_cast<int32_t>(lane_lo(x)) * lane_lo(y)) +
      static_cast<uint32_t>(static_cast<int32_t>(lane_hi(x)) * lane_hi(y)));
}

// __SMLABB: acc + lo(x)*lo(y) — used for odd leftover operands.
constexpr int32_t smlabb(uint32_t x, uint32_t y, int32_t acc) {
  return static_cast<int32_t>(
      static_cast<uint32_t>(acc) +
      static_cast<uint32_t>(static_cast<int32_t>(lane_lo(x)) * lane_lo(y)));
}

// __SXTB16: sign-extend bytes 0 and 2 of a word into two int16 lanes
// (how CMSIS expands q7 weight words on the fly).
constexpr uint32_t sxtb16(uint32_t x) {
  const int16_t lo = static_cast<int8_t>(x & 0xFFu);
  const int16_t hi = static_cast<int8_t>((x >> 16) & 0xFFu);
  return pack_q15_pair(hi, lo);
}

// --- The host's block step ---------------------------------------------
//
// The host kernels run kPosBlock consecutive output positions per SMLAD
// step: SSE2's pmaddwd is SMLAD four lanes wide (lo*lo + hi*hi per
// 32-bit lane, wrapping like SMLAD), so eight positions fill two
// registers. Every lane computes exactly smlad(); only the host's
// instruction count changes, never a bit or a priced cycle.
inline constexpr int kPosBlock = 8;

// Lanes per step: the conv-shaped kernels run kBatchLanes blocks of
// kPosBlock positions (of any image, row or column block) on each
// broadcast weight constant, so it serves 4 x 8 positions; the dense
// kernel runs one weight row over kBatchLanes images.
inline constexpr int kBatchLanes = 4;

// Eight int32 accumulators, one per position of a block.
struct Acc8 {
#if defined(__SSE2__)
  __m128i lo, hi;
#else
  int32_t lane[kPosBlock];
#endif
};

// The definition of the block step: acc[p] = smlad(w, (b[p], a[p]),
// acc[p]) for p < kPosBlock, i.e. acc[p] += lo(w)*a[p] + hi(w)*b[p].
inline void smlad8_scalar(uint32_t w, const int16_t* a, const int16_t* b,
                          int32_t* acc) {
  for (int p = 0; p < kPosBlock; ++p)
    acc[p] = smlad(w, pack_q15_pair(b[p], a[p]), acc[p]);
}

// acc[p] + lo(w_i)*x[2i] + hi(w_i)*x[2i+1] summed over i < pairs: the
// dot-product definition of one packed weight row against a contiguous
// q15 vector.
inline int32_t smlad_dot_scalar(const uint32_t* w, const int16_t* x,
                                size_t pairs, int32_t acc) {
  for (size_t i = 0; i < pairs; ++i)
    acc = smlad(w[i], pack_q15_pair(x[2 * i + 1], x[2 * i]), acc);
  return acc;
}

#if defined(__SSE2__)

inline Acc8 acc8_splat(int32_t v) {
  const __m128i s = _mm_set1_epi32(v);
  return {s, s};
}

// Interleaving a and b puts (a[p], b[p]) in 32-bit lane p, so pmaddwd
// against the broadcast (lo(w), hi(w)) word is SMLAD's lo*lo + hi*hi.
inline void smlad8(uint32_t w, const int16_t* a, const int16_t* b,
                   Acc8& acc) {
  const __m128i wv = _mm_set1_epi32(static_cast<int32_t>(w));
  const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
  const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
  acc.lo =
      _mm_add_epi32(acc.lo, _mm_madd_epi16(_mm_unpacklo_epi16(va, vb), wv));
  acc.hi =
      _mm_add_epi32(acc.hi, _mm_madd_epi16(_mm_unpackhi_epi16(va, vb), wv));
}

inline Acc8 acc8_load(const int32_t* in) {
  return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(in)),
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 4))};
}

inline void acc8_store(const Acc8& acc, int32_t* out) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), acc.lo);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 4), acc.hi);
}

// Horizontal sum of four int32 lanes, wrapping.
inline int32_t hsum4(__m128i v) {
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(v);
}

// The int16 view of a packed row is the weight row (lo lane first), read
// only through vector loads. Four pairs per madd, then the scalar tail.
inline int32_t smlad_dot(const uint32_t* w, const int16_t* x, size_t pairs,
                         int32_t acc) {
  __m128i sum = _mm_setzero_si128();
  size_t i = 0;
  for (; i + 4 <= pairs; i += 4) {
    const __m128i wv =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + i));
    const __m128i xv =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + 2 * i));
    sum = _mm_add_epi32(sum, _mm_madd_epi16(wv, xv));
  }
  acc = static_cast<int32_t>(static_cast<uint32_t>(acc) +
                             static_cast<uint32_t>(hsum4(sum)));
  return smlad_dot_scalar(w + i, x + 2 * i, pairs - i, acc);
}

// acc[j] = smlad_dot(w, x[j], pairs, acc[j]) for j < kBatchLanes: one
// weight row against kBatchLanes vectors, each load of four weight
// pairs feeding one madd per vector.
inline void smlad_dot_lanes(const uint32_t* w,
                            const int16_t* const x[kBatchLanes],
                            size_t pairs, int32_t acc[kBatchLanes]) {
  __m128i sum[kBatchLanes];
  for (__m128i& v : sum) v = _mm_setzero_si128();
  size_t i = 0;
  for (; i + 4 <= pairs; i += 4) {
    const __m128i wv =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + i));
    for (int j = 0; j < kBatchLanes; ++j) {
      const __m128i xv =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(x[j] + 2 * i));
      sum[j] = _mm_add_epi32(sum[j], _mm_madd_epi16(wv, xv));
    }
  }
  for (int j = 0; j < kBatchLanes; ++j) {
    acc[j] = smlad_dot_scalar(
        w + i, x[j] + 2 * i, pairs - i,
        static_cast<int32_t>(static_cast<uint32_t>(acc[j]) +
                             static_cast<uint32_t>(hsum4(sum[j]))));
  }
}

#else

inline Acc8 acc8_splat(int32_t v) {
  Acc8 acc{};
  for (int32_t& a : acc.lane) a = v;
  return acc;
}

inline void smlad8(uint32_t w, const int16_t* a, const int16_t* b,
                   Acc8& acc) {
  smlad8_scalar(w, a, b, acc.lane);
}

inline Acc8 acc8_load(const int32_t* in) {
  Acc8 acc{};
  for (int p = 0; p < kPosBlock; ++p) acc.lane[p] = in[p];
  return acc;
}

inline void acc8_store(const Acc8& acc, int32_t* out) {
  for (int p = 0; p < kPosBlock; ++p) out[p] = acc.lane[p];
}

inline int32_t smlad_dot(const uint32_t* w, const int16_t* x, size_t pairs,
                         int32_t acc) {
  return smlad_dot_scalar(w, x, pairs, acc);
}

inline void smlad_dot_lanes(const uint32_t* w,
                            const int16_t* const x[kBatchLanes],
                            size_t pairs, int32_t acc[kBatchLanes]) {
  for (int j = 0; j < kBatchLanes; ++j)
    acc[j] = smlad_dot_scalar(w, x[j], pairs, acc[j]);
}

#endif

}  // namespace ataman
