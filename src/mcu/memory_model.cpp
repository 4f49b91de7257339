#include "src/mcu/memory_model.hpp"

#include <algorithm>

#include "src/common/error.hpp"

namespace ataman {

FlashReport packed_flash(const QModel& model) {
  FlashReport r;
  r.code_bytes =
      kMemoryCosts.generic_runtime_code + kMemoryCosts.const_tables +
      kMemoryCosts.per_layer_descriptor *
          static_cast<int64_t>(model.layers.size());
  r.weight_bytes = model.weight_bytes();
  r.total_bytes = r.code_bytes + r.weight_bytes;
  return r;
}

FlashReport unpacked_flash(const QModel& model,
                           const std::vector<int64_t>& static_pairs,
                           const std::vector<int64_t>& static_singles) {
  check(static_pairs.size() == static_singles.size(),
        "pair/single vectors must align");
  FlashReport r;
  r.code_bytes = kMemoryCosts.custom_runtime_code + kMemoryCosts.const_tables;

  int ordinal = 0;
  for (const QLayer& layer : model.layers) {
    const OpDescriptor d = describe_layer(layer);
    if (d.skippable) {
      // Conv or depthwise: per-channel programs, weights either burned
      // into code (unpacked) or kept as data (packed fallback).
      const int64_t weight_data = d.skippable_operand_count();
      const int64_t bias_data = static_cast<int64_t>(d.channels) * 4;
      const bool unpacked =
          ordinal < static_cast<int>(static_pairs.size()) &&
          static_pairs[static_cast<size_t>(ordinal)] >= 0;
      if (unpacked) {
        const int64_t pairs = static_pairs[static_cast<size_t>(ordinal)];
        const int64_t singles = static_singles[static_cast<size_t>(ordinal)];
        r.unpacked_code_bytes +=
            kMemoryCosts.unpacked_bytes_per_layer +
            kMemoryCosts.unpacked_bytes_per_channel * d.channels +
            kMemoryCosts.unpacked_bytes_per_pair * pairs +
            kMemoryCosts.unpacked_bytes_per_single * singles;
        // Biases remain data (loaded by the per-channel prologue).
        r.weight_bytes += bias_data;
      } else {
        r.weight_bytes += weight_data + bias_data;
        r.code_bytes += kMemoryCosts.per_layer_descriptor;
      }
      ++ordinal;
    } else if (const auto* fc = std::get_if<QDense>(&layer)) {
      r.weight_bytes += static_cast<int64_t>(fc->weights.size()) +
                        static_cast<int64_t>(fc->bias.size()) * 4;
      r.code_bytes += kMemoryCosts.per_layer_descriptor;
    } else {
      r.code_bytes += kMemoryCosts.per_layer_descriptor;
    }
  }
  r.total_bytes = r.code_bytes + r.weight_bytes + r.unpacked_code_bytes;
  return r;
}

int64_t ActivationPlan::total_tensor_elems() const {
  int64_t total = 0;
  for (const Tensor& t : tensors) total += t.elems;
  return total;
}

ActivationPlan plan_activations(const QModel& model) {
  model.validate_dag();
  const int num_layers = static_cast<int>(model.layers.size());
  ActivationPlan plan;
  plan.tensors.resize(static_cast<size_t>(num_layers) + 1);

  // Define intervals. def(t) is fixed by tensor numbering; last_use is
  // the deepest reader (the network output is read "after" the last
  // step, so it stays live through the whole run).
  for (int t = 0; t <= num_layers; ++t) {
    ActivationPlan::Tensor& tensor = plan.tensors[static_cast<size_t>(t)];
    tensor.elems = model.tensor_elems(t);
    tensor.def = t - 1;
    tensor.last_use = t - 1;
  }
  for (int l = 0; l < num_layers; ++l) {
    for (int t : model.inputs_of(l)) {
      ActivationPlan::Tensor& in = plan.tensors[static_cast<size_t>(t)];
      in.last_use = std::max(in.last_use, l);
    }
  }
  plan.tensors.back().last_use = num_layers;

  // True peak: at step l the output (def == l) and every not-yet-dead
  // input tensor are live simultaneously.
  for (int l = 0; l < num_layers; ++l) {
    int64_t live = 0;
    for (const ActivationPlan::Tensor& t : plan.tensors)
      if (t.def <= l && t.last_use >= l) live += t.elems;
    plan.peak_elems = std::max(plan.peak_elems, live);
  }
  if (num_layers == 0) plan.peak_elems = plan.tensors[0].elems;

  // First-fit interval coloring in def order: a slot is reusable for
  // tensor t when its current occupant died before t is defined. On a
  // chain this produces exactly two alternating slots (ping-pong).
  std::vector<int> slot_free_after;  // last_use of the current occupant
  for (int t = 0; t <= num_layers; ++t) {
    ActivationPlan::Tensor& tensor = plan.tensors[static_cast<size_t>(t)];
    int chosen = -1;
    for (int s = 0; s < static_cast<int>(slot_free_after.size()); ++s) {
      if (slot_free_after[static_cast<size_t>(s)] < tensor.def) {
        chosen = s;
        break;
      }
    }
    if (chosen < 0) {
      chosen = static_cast<int>(slot_free_after.size());
      slot_free_after.push_back(0);
      plan.slot_elems.push_back(0);
    }
    tensor.slot = chosen;
    slot_free_after[static_cast<size_t>(chosen)] = tensor.last_use;
    plan.slot_elems[static_cast<size_t>(chosen)] =
        std::max(plan.slot_elems[static_cast<size_t>(chosen)], tensor.elems);
  }
  return plan;
}

int64_t model_ram_bytes(const QModel& model, bool packed_engine,
                        int64_t runtime_reserve) {
  // Liveness-planned arena (see header): ping-pong max(cur + next) on
  // chains, true DAG peak on residual models.
  const int64_t arena = plan_activations(model).peak_elems;
  int64_t im2col = 0;
  if (packed_engine) {
    for (const QLayer& layer : model.layers) {
      if (const auto* conv = std::get_if<QConv2D>(&layer)) {
        // Two q15 columns of one receptive field each (CMSIS 2-column
        // mat_mult scratch). Depthwise kernels read activations directly
        // (no column scratch).
        im2col = std::max<int64_t>(im2col, 2LL * conv->geom.patch_size() * 2);
      }
    }
  }
  return arena + im2col + runtime_reserve;
}

}  // namespace ataman
