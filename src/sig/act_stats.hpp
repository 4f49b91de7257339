// Activation statistics capture (§II-C, framework step 2).
//
// The significance of a product a_i * w_i depends on the *expected* value
// of its input operand: E[a_i] is estimated per approximable layer (conv
// and depthwise conv) by averaging the zero-point-corrected quantized
// activations over every output position of every image in a small
// calibration subset — "capturing the input values' distribution from a
// small portion of the dataset".
//
//   * plain conv:     mean_corrected[(ky,kx,in_c)-flattened patch index].
//     E[a_i] is shared by all output channels (they read the same
//     receptive field); per-channel significance differs only through w_i.
//   * depthwise conv: mean_corrected[(ky*kx)*channels + ch] — the same
//     (ky, kx, channel) iteration, which is exactly the [k][k][c] weight
//     layout, so stats index == weight index (dw_weight_index).
//
// Execution: the exact model's compiled plan on the packed kernels
// (bit-exact with the reference engine), batched in chunks of
// 2 * kBatchLanes images and parallel over chunks. A TapKernels
// decorator adds each approximable layer's int8 input map into a
// per-worker int64 map; after the loop one window walk over the summed
// map (minus images * zero_point per tap) yields each operand's sum.
//
// Exactness: every summand is an integer and every partial sum stays far
// below 2^53, so each operand's sum is the exact integer whatever the
// order, and each mean is that integer divided once by `samples`. The
// stats are therefore the same bits at any thread count and equal to
// adding (x - zp) image by image, position by position in doubles.
#pragma once

#include <vector>

#include "src/data/dataset.hpp"
#include "src/quant/qtypes.hpp"

namespace ataman {

struct ConvInputStats {
  // mean_corrected[i] = E[(x_q - zero_point)] at patch operand i.
  std::vector<double> mean_corrected;
  int64_t samples = 0;  // positions x images averaged over
};

// Stats vector length for one approximable layer: conv patch size, or
// k*k*channels for depthwise (see header comment).
int64_t stats_len(const QLayer& layer);

// One entry per approximable layer (ordinal order). Uses up to `limit`
// images of `calib` (all if < 0); bitwise deterministic (see above).
std::vector<ConvInputStats> capture_activation_stats(const QModel& model,
                                                     const Dataset& calib,
                                                     int limit = 256);

}  // namespace ataman
