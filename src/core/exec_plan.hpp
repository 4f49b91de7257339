// Compiled execution plan: the layer DAG of a QModel resolved once, when
// an engine is built, into a flat step list over one activation arena —
// model-structure handling moved offline, as the paper's customized
// runtime does (§II-A). Every engine (ref, cmsis, unpacked, xcube) runs
// the same plan through the same walkers; an engine only contributes its
// kernel table, i.e. how it executes one step. The DSE prefix cache runs
// step ranges of it (run_range) and the C emitter generates its steps
// and arena as code.
//
// Arena layout: tensor ids follow QModel (0 = network input, l+1 = the
// output of layer l). Each tensor lives in its liveness slot from the
// shared activation plan (src/mcu/memory_model), and slots are laid out
// back to back, so one image needs `arena_elems` int8 elements — the
// peak-RAM placement the memory model reports. A batch of B images
// scales every slot by B: tensor t occupies [offset*B, (offset+elems)*B)
// with image b at offset*B + b*elems, which is the contiguous batched
// layout the batched kernels expect.
//
// Streaming frames use a second, unaliased layout: splice sources read
// tensors of past frames, so every tensor of a frame keeps its own range
// (`frame_offsets`) in one ring slot of the session's StreamState.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/quant/qtypes.hpp"

namespace ataman {

struct StreamState;

// One tensor's place in the arena, in single-image units.
struct PlanTensor {
  int id = -1;         // QModel tensor id; -1 = no such operand
  int64_t offset = 0;  // start of its liveness slot
  int64_t elems = 0;
};

struct ExecStep {
  OpKind kind = OpKind::kConv;
  int layer = 0;            // index into QModel::layers
  int approx_ordinal = -1;  // approximable-layer ordinal; -1 if none
  int64_t macs = 0;         // unmasked MACs per image
  PlanTensor in[2];         // in[1].id == -1 except for QAdd
  PlanTensor out;           // out.elems is the step's out_elems
};

// A step's operands over a batch, as the walker hands them to a kernel.
struct StepIO {
  std::span<const int8_t> in_a, in_b;  // in_b is empty unless QAdd
  std::span<int8_t> out;
  int batch = 1;
  std::span<int16_t> scratch;  // q15 kernel working memory (Q15Scratch)
  // Output columns to compute. Conv and depthwise kernels honour it;
  // every other kind always computes its whole output.
  ColumnRange cols;

  // The same operands restricted to image `b` of the batch.
  StepIO image(int b) const;
};

// One engine's kernels: executes `step` over the batch in `io`.
class KernelTable {
 public:
  virtual void run_step(const ExecStep& step, const StepIO& io) const = 0;

  // MACs one image of `step` executes in full; the streaming walker
  // scales it by the recomputed fraction. Mask-aware tables override.
  virtual int64_t executed_macs(const ExecStep& step) const {
    return step.macs;
  }

 protected:
  ~KernelTable() = default;
};

// Called before each approximable (conv/depthwise) step executes, once per
// image: (approx_ordinal, layer, that image's input). The layer is passed
// as the QLayer variant so one hook handles every approximable kind; the
// significance capture (src/sig/act_stats) reads the inputs through it.
using ConvTap =
    std::function<void(int, const QLayer&, std::span<const int8_t>)>;

// Decorates any kernel table with a ConvTap: each step first hands every
// image's input of an approximable step to `tap` (if set), then runs
// through `inner`. `model`, `inner` and `tap` must outlive the decorator.
class TapKernels final : public KernelTable {
 public:
  TapKernels(const QModel& model, const KernelTable& inner, const ConvTap& tap)
      : model_(model), inner_(inner), tap_(tap) {}

  void run_step(const ExecStep& step, const StepIO& io) const override;
  int64_t executed_macs(const ExecStep& step) const override {
    return inner_.executed_macs(step);
  }

 private:
  const QModel& model_;
  const KernelTable& inner_;
  const ConvTap& tap_;
};

// Runs `layer` through the reference kernels one image at a time; `skip`
// applies to approximable layers.
void run_step_ref(const QLayer& layer, const StepIO& io,
                  const uint8_t* skip = nullptr);

struct ExecPlan {
  const QModel* model = nullptr;
  std::vector<ExecStep> steps;      // one per layer, in stored order
  std::vector<PlanTensor> tensors;  // by tensor id
  int64_t arena_elems = 0;          // one image's activations
  int64_t scratch_elems = 0;        // largest per-image q15 working set
  // Unaliased frame layout: tensor t at [frame_offsets[t],
  // frame_offsets[t + 1]); the last entry is one frame's elements.
  std::vector<int64_t> frame_offsets;
  // u8 pixel v (real = v / 255) -> int8 input under model->input:
  // input_table[v] == model->input.quantize(v / 255.f).
  std::array<int8_t, 256> input_table{};

  // `model` must outlive the plan.
  static ExecPlan compile(const QModel& model);

  // The one input-quantization routine: `pixels` through input_table
  // into `out` (same size). The walkers, the streaming column splice,
  // InferenceEngine::quantize_input and the DSE prefix cache all
  // quantize through here.
  void quantize_input(std::span<const uint8_t> pixels,
                      std::span<int8_t> out) const;

  // The walker. Each call allocates one arena for its batch (plus the
  // kernels' q15 scratch, in the same allocation), quantizes the images
  // straight into tensor 0 and runs the steps in order. Nothing outside
  // the call is written, so one const engine serves any number of
  // threads.
  std::vector<int8_t> run(std::span<const uint8_t> image,
                          const KernelTable& kernels) const;
  // `logits_out` is resized to the batch; its entries are overwritten in
  // place, so a correctly sized buffer costs no further allocation.
  void run_batch(std::span<const std::span<const uint8_t>> images,
                 const KernelTable& kernels,
                 std::vector<std::vector<int8_t>>& logits_out) const;
  // A step range over a contiguous batch: `activations` is tensor
  // `first` of `batch` images, steps [first, end) run and tensor `end`
  // of the batch is returned (`first == end` returns the input). The
  // caller guarantees `first` is a linear boundary
  // (QModel::linear_boundary), so one tensor carries the whole frontier.
  std::vector<int8_t> run_range(int first, int end,
                                std::span<const int8_t> activations,
                                const KernelTable& kernels,
                                int batch = 1) const;
  // One streaming frame (InferenceEngine::run_incremental): shifts the
  // previous input by the pushed columns, then runs every step into the
  // ring's free slot — a spliced step copies its proven-equal band from
  // a past frame and computes only the two halo column ranges. `state`
  // is committed only after the last step succeeds.
  std::vector<int8_t> run_incremental(StreamState& state,
                                      std::span<const uint8_t> new_columns,
                                      const KernelTable& kernels) const;
};

}  // namespace ataman
