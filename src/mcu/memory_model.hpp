// Flash and RAM accounting for deployed models.
//
// Flash (packed deployment) = runtime code + kernel code + weights/biases
// + constant tables. Flash (unpacked deployment) replaces each unpacked
// conv layer's weights with straight-line code whose size scales with the
// *retained* operand count — the flash/latency trade-off of §II-B. The
// paper's customization claim (§II-A: offloading model-structure handling
// to compile time cuts runtime flash by up to 30%) shows up as
// `custom_runtime_code` < `generic_runtime_code`.
//
// RAM = liveness-planned activation arena + im2col scratch (packed
// only) + a fixed runtime reserve (stack, HAL, I/O staging) calibrated
// once against Table I. The arena term is
//   peak = max over execution steps l of  sum of live tensor sizes,
// where tensor t is live at step l iff def(t) <= l <= last_use(t)
// (def = producing step, last_use = last consuming step). On a pure
// chain exactly {input, output} are live at each step, so peak reduces
// to the classic ping-pong max(cur + next); on a DAG it accounts for
// every skip-edge tensor held across the block body and is strictly
// below the naive sum-of-all-tensors (pinned by tests/test_dag.cpp).
// MinUn (PAPERS.md) is the reference for this style of placement.
//
// All sizes live in the fixed table kMemoryCosts, calibrated once and
// read directly by the flash functions and the hybrid selection; no
// option, constructor or parameter takes a table. The one value a
// caller picks is the RAM runtime reserve of model_ram_bytes:
// kMemoryCosts.runtime_reserve for the generic and customized runtimes,
// kXCubeCosts.ram_runtime_reserve for X-CUBE-AI.
#pragma once

#include <cstdint>

#include "src/nn/skip_mask.hpp"
#include "src/quant/qtypes.hpp"

namespace ataman {

struct MemoryCostTable {
  // Code sizes (bytes).
  int64_t generic_runtime_code = 52 * 1024;  // CMSIS-NN + dispatch runtime
  int64_t custom_runtime_code = 36 * 1024;   // ours: structure at compile time
  int64_t const_tables = 4 * 1024;           // requant tables, class map, io
  int64_t per_layer_descriptor = 96;         // packed runtime layer metadata

  // Unpacked code emission (bytes). Per retained SMLAD pair: MOVW+MOVT of
  // the packed weight constant (8) plus its share of activation loads and
  // the SMLAD itself (amortized ~4).
  int64_t unpacked_bytes_per_pair = 12;
  int64_t unpacked_bytes_per_single = 8;
  int64_t unpacked_bytes_per_channel = 16;   // bias load + requant + store
  int64_t unpacked_bytes_per_layer = 256;    // prologue/epilogue, pointers

  // RAM.
  int64_t runtime_reserve = 168 * 1024;  // stack, HAL, statics, I/O staging
};

inline constexpr MemoryCostTable kMemoryCosts{};

struct FlashReport {
  int64_t total_bytes = 0;
  int64_t code_bytes = 0;
  int64_t weight_bytes = 0;
  int64_t unpacked_code_bytes = 0;
  double percent_of(int64_t flash_capacity) const {
    return 100.0 * static_cast<double>(total_bytes) /
           static_cast<double>(flash_capacity);
  }
};

// Packed (CMSIS-like) deployment: weights stored as data.
FlashReport packed_flash(const QModel& model);

// Unpacked deployment: approximable layers (conv + depthwise) in
// `static_pairs` / `static_singles` (indexed by approximable-layer
// ordinal, -1 entries = layer kept packed) become straight-line code;
// their weights disappear from the data segment. FC layers stay packed.
FlashReport unpacked_flash(const QModel& model,
                           const std::vector<int64_t>& static_pairs,
                           const std::vector<int64_t>& static_singles);

// ---------------------------------------------------------------------------
// Liveness-based activation-buffer plan — the one placement every engine
// (ref, cmsis, unpacked), the serve workers and the codegen runner
// consume instead of hard-coded ping-pong buffers.
//
// Tensor ids follow QModel: tensor 0 is the network input, tensor l+1
// the output of layer l. Each tensor's live interval is
// [def, last_use]; buffers are assigned by first-fit interval-graph
// coloring (tensors are already in def order), which degenerates to the
// two-slot ping-pong on pure chains. Slots never alias a step's output
// with one of its inputs: the output's interval starts at the step
// where every input is still live.
// ---------------------------------------------------------------------------
struct ActivationPlan {
  struct Tensor {
    int64_t elems = 0;  // int8 elements == bytes
    int def = 0;        // producing step (-1 for the network input)
    int last_use = 0;   // last consuming step (layer count for the output)
    int slot = -1;      // buffer slot from interval coloring
  };
  std::vector<Tensor> tensors;      // indexed by tensor id, 0..layer count
  std::vector<int64_t> slot_elems;  // capacity of each buffer slot
  // True DAG peak: max over steps of the summed size of live tensors.
  // Equals the ping-pong max(cur + next) on chains.
  int64_t peak_elems = 0;

  int slot_count() const { return static_cast<int>(slot_elems.size()); }
  // Sum of every tensor size — the naive no-reuse bound the planner
  // must beat on DAGs (regression-pinned).
  int64_t total_tensor_elems() const;
};

ActivationPlan plan_activations(const QModel& model);

// RAM use is engine-independent to first order (same activation buffers);
// packed adds the im2col q15 scratch. The arena term is
// plan_activations(model).peak_elems; `runtime_reserve` is added as is.
int64_t model_ram_bytes(const QModel& model, bool packed_engine,
                        int64_t runtime_reserve);

}  // namespace ataman
