// Skip mask: which static approximable products are omitted.
//
// The paper's approximation (§II-C) removes individual products a_i * w_i
// from each output channel's accumulation. A skipped product is a *static*
// (approximable layer, channel, filter operand index) triple. Approximable
// layers are the convolution kinds — plain conv and depthwise conv — in
// layer order; `ordinal` below always means the n-th approximable layer
// (QModel::approx_layer_index). The operand index is
//   * plain conv:     the (ky, kx, in_c)-flattened position within the
//                     output channel's filter (the im2col order), and
//   * depthwise conv: the (ky, kx)-flattened tap position within the
//                     channel's own k×k filter (dw_weight_index maps it
//                     into the [k][k][c] weight tensor).
// Skipping removes that operand at every output spatial position, exactly
// like deleting its instruction from generated code.
#pragma once

#include <cstdint>
#include <vector>

#include "src/quant/qtypes.hpp"

namespace ataman {

struct SkipMask {
  // masks[approx_ordinal][channel * patch + operand] == 1 -> skip.
  // An empty per-layer vector means "layer untouched".
  std::vector<std::vector<uint8_t>> masks;

  bool empty() const;
  // Skip row of approximable layer `ordinal`: nullptr when the mask
  // leaves that layer untouched (absent or empty per-layer vector).
  const uint8_t* row(int ordinal) const {
    return ordinal < static_cast<int>(masks.size()) &&
                   !masks[static_cast<size_t>(ordinal)].empty()
               ? masks[static_cast<size_t>(ordinal)].data()
               : nullptr;
  }
  // Total number of skipped static operands.
  int64_t skipped_static_operands() const;

  // Dynamic (per-inference) MACs removed from `model` by this mask:
  // each skipped static operand saves out_h*out_w MACs in its layer.
  int64_t skipped_macs(const QModel& model) const;

  // Validate dimensions against `model`; throws on mismatch.
  void validate(const QModel& model) const;

  // All-zeros mask shaped for `model`.
  static SkipMask none(const QModel& model);
};

// A copy of `model` with every skipped conv/depthwise weight set to zero.
// The quantized product (a - zp) * w vanishes for w == 0, so running the
// masked copy through any exact engine is numerically identical to
// skip-aware execution — and faster to evaluate (no per-MAC branch),
// which is what the DSE uses for its thousands of accuracy evaluations.
QModel apply_skip_mask(const QModel& model, const SkipMask& mask);

}  // namespace ataman
