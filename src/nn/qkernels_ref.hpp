// Reference (golden) int8 kernels.
//
// Plain nested loops with explicit zero-point handling; every optimized
// engine in the repo (CMSIS-like packed, unpacked/approximate, generated
// C) is tested bit-exact against these. Conv and depthwise visit only the
// kernel taps that lie inside the image: a padding tap reads the input
// zero point, so its term (zp - zp) * w is exactly 0 and leaving it out
// changes no sum.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/quant/qtypes.hpp"

namespace ataman {

// out[pos][oc]; `skip` is nullptr or [out_c * patch] (1 = skip operand).
// Only the output columns in `cols` are computed, the rest of `out` is
// left untouched (`in`/`out` are still the full tensors): the streaming
// walker recomputes just the halo columns its splice plan says changed.
void conv2d_ref(const QConv2D& layer, std::span<const int8_t> in,
                std::span<int8_t> out, const uint8_t* skip = nullptr,
                ColumnRange cols = {});

// out[pos][ch]; `skip` is nullptr or [channels * k*k] indexed
// channel * patch + (ky*k + kx) — SkipMask's depthwise operand order.
// `cols` as for conv2d_ref.
void depthwise_conv2d_ref(const QDepthwiseConv2D& layer,
                          std::span<const int8_t> in, std::span<int8_t> out,
                          const uint8_t* skip = nullptr,
                          ColumnRange cols = {});

void maxpool_ref(const QMaxPool& layer, std::span<const int8_t> in,
                 std::span<int8_t> out);

// Int8 average pool: window sum, round-half-away-from-zero divide
// (TFLite-Micro semantics; in/out quantization params are shared).
void avgpool_ref(const QAvgPool& layer, std::span<const int8_t> in,
                 std::span<int8_t> out);

void dense_ref(const QDense& layer, std::span<const int8_t> in,
               std::span<int8_t> out);

// Residual add: each input requantized to the output scale with its own
// fixed-point multiplier, then integer add + zero point + clamp. Both
// inputs and the output have identical shape.
void qadd_ref(const QAdd& layer, std::span<const int8_t> in_a,
              std::span<const int8_t> in_b, std::span<int8_t> out);

// Dispatch any QLayer through its reference kernel into `out` (sized
// describe_layer(layer).out_elems by the caller). `in_b` is the second
// QAdd operand, unused by every other kind; `skip` and `cols` apply to
// approximable layers only. The one reference dispatcher: the reference
// kernel table executes layers through it, and the packed table its
// pools and adds.
void run_layer_ref(const QLayer& layer, std::span<const int8_t> in_a,
                   std::span<const int8_t> in_b, std::span<int8_t> out,
                   const uint8_t* skip = nullptr, ColumnRange cols = {});

}  // namespace ataman
