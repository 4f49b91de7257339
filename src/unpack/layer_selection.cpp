#include "src/unpack/layer_selection.hpp"

#include <algorithm>
#include <numeric>

#include "src/common/error.hpp"

namespace ataman {

std::vector<uint8_t> HybridPlan::unpack_selection() const {
  std::vector<uint8_t> out;
  out.reserve(choices.size());
  for (const LayerDeployChoice& c : choices)
    out.push_back(c.unpack ? 1 : 0);
  return out;
}

int64_t HybridPlan::total_cycle_saving() const {
  int64_t total = 0;
  for (const LayerDeployChoice& c : choices)
    if (c.unpack) total += c.packed_cycles - c.unpacked_cycles;
  return total;
}

int HybridPlan::unpacked_count() const {
  int n = 0;
  for (const LayerDeployChoice& c : choices) n += c.unpack ? 1 : 0;
  return n;
}

HybridPlan analyze_layer_choices(const QModel& model, const SkipMask& mask) {
  const UnpackStats stats = compute_unpack_stats(model, mask);
  HybridPlan plan;
  int ordinal = 0;
  for (const QLayer& layer : model.layers) {
    const OpDescriptor d = describe_layer(layer);
    if (!d.skippable) continue;
    const int64_t pairs = stats.static_pairs[static_cast<size_t>(ordinal)];
    const int64_t singles =
        stats.static_singles[static_cast<size_t>(ordinal)];
    LayerDeployChoice c;
    double sum = 0.0;  // add_step_cycles' running total; unused
    c.packed_cycles = static_cast<int64_t>(
        add_step_cycles(sum, layer, PriceList::kPacked));
    c.unpacked_cycles = static_cast<int64_t>(
        add_step_cycles(sum, layer, PriceList::kUnpacked, pairs, singles));
    c.packed_flash = d.skippable_operand_count() +
                     static_cast<int64_t>(d.channels) * 4 +
                     kMemoryCosts.per_layer_descriptor;
    c.unpacked_flash = kMemoryCosts.unpacked_bytes_per_layer +
                       kMemoryCosts.unpacked_bytes_per_channel * d.channels +
                       kMemoryCosts.unpacked_bytes_per_pair * pairs +
                       kMemoryCosts.unpacked_bytes_per_single * singles +
                       static_cast<int64_t>(d.channels) * 4;
    c.unpack = false;  // selection decides
    plan.choices.push_back(c);
    ++ordinal;
  }
  return plan;
}

HybridPlan select_layers_to_unpack(const QModel& model, const SkipMask& mask,
                                   int64_t flash_budget) {
  HybridPlan plan = analyze_layer_choices(model, mask);

  // Baseline model flash with everything packed.
  int64_t flash = packed_flash(model).total_bytes
                  // swap generic runtime for the customized one (the
                  // hybrid build is generated code either way)
                  - kMemoryCosts.generic_runtime_code +
                  kMemoryCosts.custom_runtime_code;

  // Candidate order: best cycle-saving per extra flash byte first.
  std::vector<int> order(plan.choices.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const auto& ca = plan.choices[static_cast<size_t>(a)];
    const auto& cb = plan.choices[static_cast<size_t>(b)];
    const double da = std::max<int64_t>(1, ca.unpacked_flash - ca.packed_flash);
    const double db = std::max<int64_t>(1, cb.unpacked_flash - cb.packed_flash);
    return static_cast<double>(ca.packed_cycles - ca.unpacked_cycles) / da >
           static_cast<double>(cb.packed_cycles - cb.unpacked_cycles) / db;
  });

  for (const int idx : order) {
    LayerDeployChoice& c = plan.choices[static_cast<size_t>(idx)];
    const int64_t saving = c.packed_cycles - c.unpacked_cycles;
    if (saving <= 0) continue;  // unpacking would slow this layer down
    const int64_t delta = c.unpacked_flash - c.packed_flash;
    if (flash_budget > 0 && flash + delta > flash_budget) continue;
    c.unpack = true;
    flash += delta;
  }
  return plan;
}

}  // namespace ataman
