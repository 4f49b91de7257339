// Fixed-point requantization arithmetic.
//
// Quantized inference accumulates int8 products into int32 and rescales the
// accumulator to the output tensor's scale with an integer multiply-shift
// ("quantized multiplier"), exactly as TFLite-Micro/CMSIS-NN do on device:
//
//   out = saturate( multiply_by_quantized_multiplier(acc, M, shift) + zp )
//
// where real_multiplier = in_scale * w_scale / out_scale is decomposed as
// M * 2^shift with M an int32 in [2^30, 2^31).
#pragma once

#include <algorithm>
#include <cstdint>

namespace ataman {

struct QuantizedMultiplier {
  int32_t mult = 0;  // significand in [2^30, 2^31) (0 encodes real==0)
  int shift = 0;     // power-of-two exponent; <=0 means right shift
};

// Decompose a positive real multiplier (must be < 1 in practice for
// conv/fc rescale, but values up to 2^30 are handled) into mult/shift.
QuantizedMultiplier quantize_multiplier(double real_multiplier);

// gemmlowp SaturatingRoundingDoublingHighMul: (a*b*2) >> 31, round-half-away,
// saturating only on the single overflow case a==b==INT32_MIN.
int32_t saturating_rounding_doubling_high_mul(int32_t a, int32_t b);

// Rounding arithmetic shift right by `exponent` >= 0 (round-half-away-up).
int32_t rounding_divide_by_pot(int32_t x, int exponent);

// Apply the decomposed multiplier: round(x * real_multiplier) in integer
// arithmetic, bit-exact with the TFLite reference implementation.
int32_t multiply_by_quantized_multiplier(int32_t x, QuantizedMultiplier qm);

// The requantize epilogue of every conv, depthwise and dense kernel
// (reference, packed and unpacked). The zero point is added in int64: a
// scaled value within |out_zp| of an int32 limit would overflow int32.
inline int8_t requant_clamp(int32_t acc, const QuantizedMultiplier& requant,
                            int32_t out_zp, int32_t act_min, int32_t act_max) {
  const int64_t scaled =
      int64_t{multiply_by_quantized_multiplier(acc, requant)} + out_zp;
  return static_cast<int8_t>(std::clamp<int64_t>(scaled, act_min, act_max));
}

}  // namespace ataman
