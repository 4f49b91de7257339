#include "src/nn/skip_mask.hpp"

#include <numeric>

#include "src/common/error.hpp"

namespace ataman {

namespace {

// Zero the weights of one approximable layer in place according to its
// per-layer mask.
void zero_skipped_weights(QLayer& layer, const std::vector<uint8_t>& mask) {
  if (mask.empty()) return;
  if (auto* conv = std::get_if<QConv2D>(&layer)) {
    // Plain conv: mask index == weight index ([out_c][patch]).
    ATAMAN_ASSERT(mask.size() == conv->weights.size());
    for (size_t i = 0; i < mask.size(); ++i)
      if (mask[i]) conv->weights[i] = 0;
  } else if (auto* dw = std::get_if<QDepthwiseConv2D>(&layer)) {
    // Depthwise: mask is [channel][tap], weights are [tap][channel].
    const int patch = dw->patch_size();
    ATAMAN_ASSERT(static_cast<int64_t>(mask.size()) == dw->weight_count());
    for (int ch = 0; ch < dw->channels; ++ch)
      for (int p = 0; p < patch; ++p)
        if (mask[static_cast<size_t>(ch) * patch + p])
          dw->weights[dw_weight_index(ch, p, dw->channels)] = 0;
  } else {
    fail("zero_skipped_weights on a non-approximable layer");
  }
}

}  // namespace

bool SkipMask::empty() const {
  for (const auto& m : masks)
    for (const uint8_t v : m)
      if (v) return false;
  return true;
}

int64_t SkipMask::skipped_static_operands() const {
  int64_t total = 0;
  for (const auto& m : masks)
    total += std::accumulate(m.begin(), m.end(), int64_t{0});
  return total;
}

int64_t SkipMask::skipped_macs(const QModel& model) const {
  validate(model);
  int64_t total = 0;
  int ordinal = 0;
  for (const QLayer& layer : model.layers) {
    const OpDescriptor d = describe_layer(layer);
    if (!d.skippable) continue;
    if (ordinal < static_cast<int>(masks.size())) {
      const auto& m = masks[static_cast<size_t>(ordinal)];
      const int64_t skipped =
          std::accumulate(m.begin(), m.end(), int64_t{0});
      total += skipped * d.positions;
    }
    ++ordinal;
  }
  return total;
}

void SkipMask::validate(const QModel& model) const {
  const int approx_count = model.approx_layer_count();
  check(static_cast<int>(masks.size()) <= approx_count,
        "skip mask has more layers than the model has approximable layers");
  int ordinal = 0;
  for (const QLayer& layer : model.layers) {
    const OpDescriptor d = describe_layer(layer);
    if (!d.skippable) continue;
    if (ordinal < static_cast<int>(masks.size())) {
      const auto& m = masks[static_cast<size_t>(ordinal)];
      // Validated on every masked run: no message is built unless it fails.
      if (!m.empty() &&
          static_cast<int64_t>(m.size()) != d.skippable_operand_count())
        fail("skip mask size mismatch on approximable layer " +
             std::to_string(ordinal));
    }
    ++ordinal;
  }
}

SkipMask SkipMask::none(const QModel& model) {
  SkipMask mask;
  for (const QLayer& layer : model.layers) {
    const OpDescriptor d = describe_layer(layer);
    if (d.skippable)
      mask.masks.emplace_back(
          static_cast<size_t>(d.skippable_operand_count()), 0);
  }
  return mask;
}

QModel apply_skip_mask(const QModel& model, const SkipMask& mask) {
  mask.validate(model);
  QModel masked = model;
  int ordinal = 0;
  for (QLayer& layer : masked.layers) {
    if (!describe_layer(layer).skippable) continue;
    if (ordinal < static_cast<int>(mask.masks.size()))
      zero_skipped_weights(layer, mask.masks[static_cast<size_t>(ordinal)]);
    ++ordinal;
  }
  return masked;
}

}  // namespace ataman
