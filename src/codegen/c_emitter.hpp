// C code generator — framework step 4 ("Approximate CNN deployment").
//
// Emits a self-contained C99 translation unit implementing the
// approximate model: every conv and depthwise layer becomes straight-line
// per-channel MAC sequences with the packed weight constants hardwired
// into the instruction stream (no weight arrays), FC layers stay
// packed-loop kernels over const weight tables, and the requantization
// helpers replicate the fixed-point pipeline bit-exactly. Residual QAdd
// layers emit a two-input requantize-and-add kernel. The runner walks the
// engines' compiled ExecPlan: one static activation arena of
// arena_elems bytes with every tensor at its plan offset, so DAG models
// get the same peak RAM as the on-device memory model predicts.
//
// On a Cortex-M33 build (-D__ARM_FEATURE_DSP) the SMLAD/SMLABB shims
// compile to the native intrinsics; on any other host they compile to
// exact C models of the instructions, so the generated file can be
// compiled and validated on a laptop — tests/test_codegen.cpp does
// exactly that with the system compiler.
#pragma once

#include <string>

#include "src/nn/skip_mask.hpp"
#include "src/quant/qtypes.hpp"

namespace ataman {

struct CodegenOptions {
  std::string symbol_prefix = "ataman";
};

// Emit the full model (mask == nullptr -> exact unpacked code).
// The unit exports:
//   void <prefix>_run(const uint8_t* image, int8_t* logits);
//   extern const int <prefix>_num_classes;
std::string emit_model_c(const QModel& model, const SkipMask* mask = nullptr,
                         const CodegenOptions& options = {});

// Write `text` to `path` (creating parent directories).
void write_text_file(const std::string& path, const std::string& text);

}  // namespace ataman
