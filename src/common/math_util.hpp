// Small numeric helpers shared across modules.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "src/common/error.hpp"

namespace ataman {

constexpr int64_t ceil_div(int64_t a, int64_t b) { return (a + b - 1) / b; }

// Saturate an int32 accumulator into int8 (CMSIS __SSAT(x, 8)).
constexpr int8_t saturate_int8(int32_t v) {
  return static_cast<int8_t>(std::clamp<int32_t>(v, -128, 127));
}

// Checked narrowing conversion (Core Guidelines ES.46 narrow_cast with check).
template <typename To, typename From>
To narrow(From value) {
  const To result = static_cast<To>(value);
  check(static_cast<From>(result) == value, "narrowing conversion lost value");
  return result;
}

// Round-to-nearest-even float->int conversion used by the quantizer.
inline int32_t round_to_int32(float v) {
  return static_cast<int32_t>(std::lrintf(v));
}

// Output spatial extent of a conv/pool window.
constexpr int conv_out_extent(int in, int kernel, int stride, int pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

// Hard-errors unless the (un-padded) pool window tiles the input exactly:
// the window must fit and (extent - kernel) must be divisible by stride
// in both dimensions. Non-covering geometry would silently truncate edge
// pixels, whose handling the ref/packed/unpacked/codegen paths could
// disagree on; the quantizer, the float substrate and the pool kernels
// all enforce this instead.
inline void validate_pool_geometry(int in_h, int in_w, int kernel, int stride,
                                   const char* what) {
  // Runs on every pool execution: no message is built unless it fails.
  if (kernel < 1 || stride < 1)
    fail(std::string(what) + ": pool kernel/stride must be positive");
  if (in_h < kernel || in_w < kernel)
    fail(std::string(what) + ": pool window exceeds the input extent");
  if ((in_h - kernel) % stride != 0 || (in_w - kernel) % stride != 0)
    fail(std::string(what) +
         ": pool window does not tile the input exactly "
         "((extent - kernel) % stride != 0); pick a covering geometry "
         "so no engine has to invent edge-pixel semantics");
}

}  // namespace ataman
