#include "src/codegen/c_emitter.hpp"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/common/error.hpp"
#include "src/core/exec_plan.hpp"
#include "src/unpack/unpacked_layer.hpp"

namespace ataman {

namespace {

void emit_prelude(std::ostringstream& os, const std::string& prefix) {
  os << "/* Generated by ataman-cpp (approximate TinyML kernels). */\n"
     << "#include <stdint.h>\n"
     << "#include <string.h>\n\n"
     << "#if defined(__ARM_FEATURE_DSP)\n"
     << "#include <arm_acle.h>\n"
     << "#define " << prefix << "_smlad(x, y, a) __smlad((x), (y), (a))\n"
     << "#define " << prefix << "_smlabb(x, y, a) __smlabb((x), (y), (a))\n"
     << "#else\n"
     << "static inline int32_t " << prefix
     << "_smlad(uint32_t x, uint32_t y, int32_t acc) {\n"
     << "  int16_t xl = (int16_t)(x & 0xFFFFu), xh = (int16_t)(x >> 16);\n"
     << "  int16_t yl = (int16_t)(y & 0xFFFFu), yh = (int16_t)(y >> 16);\n"
     << "  return (int32_t)((uint32_t)acc + (uint32_t)((int32_t)xl * yl) +\n"
     << "                   (uint32_t)((int32_t)xh * yh));\n"
     << "}\n"
     << "static inline int32_t " << prefix
     << "_smlabb(uint32_t x, uint32_t y, int32_t acc) {\n"
     << "  int16_t xl = (int16_t)(x & 0xFFFFu), yl = (int16_t)(y & 0xFFFFu);\n"
     << "  return (int32_t)((uint32_t)acc + (uint32_t)((int32_t)xl * yl));\n"
     << "}\n"
     << "#endif\n\n"
     << "static inline uint32_t " << prefix
     << "_pack(int16_t hi, int16_t lo) {\n"
     << "  return ((uint32_t)(uint16_t)hi << 16) | (uint16_t)lo;\n"
     << "}\n"
     << "static inline int32_t " << prefix
     << "_rdivpot(int32_t x, int e) {\n"
     << "  if (e == 0) return x;\n"
     << "  int32_t mask = (int32_t)((1ll << e) - 1);\n"
     << "  int32_t rem = x & mask;\n"
     << "  int32_t thr = (mask >> 1) + (x < 0 ? 1 : 0);\n"
     << "  return (x >> e) + (rem > thr ? 1 : 0);\n"
     << "}\n"
     << "static inline int32_t " << prefix
     << "_srdhm(int32_t a, int32_t b) {\n"
     << "  if (a == b && a == (int32_t)0x80000000) return 0x7FFFFFFF;\n"
     << "  int64_t ab = (int64_t)a * (int64_t)b;\n"
     << "  int32_t nudge = ab >= 0 ? (1 << 30) : (1 - (1 << 30));\n"
     << "  return (int32_t)((ab + nudge) / (1ll << 31));\n"
     << "}\n"
     << "static inline int32_t " << prefix
     << "_requant(int32_t x, int32_t mult, int32_t shift) {\n"
     << "  int ls = shift > 0 ? shift : 0;\n"
     << "  int rs = shift > 0 ? 0 : -shift;\n"
     << "  int64_t wide = (int64_t)x << ls;\n"
     << "  int32_t pre = wide < (int64_t)-2147483648 ? (int32_t)-2147483648\n"
     << "              : wide > 2147483647 ? 2147483647 : (int32_t)wide;\n"
     << "  return " << prefix << "_rdivpot(" << prefix
     << "_srdhm(pre, mult), rs);\n"
     << "}\n"
     << "static inline int8_t " << prefix
     << "_clamp8(int32_t v, int32_t lo, int32_t hi) {\n"
     << "  if (v < lo) v = lo;\n"
     << "  if (v > hi) v = hi;\n"
     << "  return (int8_t)v;\n"
     << "}\n\n";
}

// One unpacked conv or depthwise layer as `<prefix>_<name>`: one
// zero-point-corrected expansion of the receptive field per position,
// shared by every channel program, which reads its baked operand offsets
// (`operands`: the layer's skippable operand count).
void emit_unpacked(std::ostringstream& os, const UnpackedLayer& u,
                   const std::string& name, int64_t operands,
                   const CodegenOptions& opt) {
  const ConvGeom& g = u.geom;
  const std::string fn = opt.symbol_prefix + "_" + name;
  os << "/* " << name << ": " << g.in_h << "x" << g.in_w << "x" << g.in_c
     << " -> " << g.out_h() << "x" << g.out_w() << "x" << g.out_c
     << ", k=" << g.kernel << " s=" << g.stride << " p=" << g.pad
     << "; retained static ops: " << u.static_pairs() * 2 + u.static_singles()
     << "/" << operands << " (weights hardwired, re-paired after"
     << " skipping) */\n";
  os << "static void " << fn
     << "(const int8_t* in, int8_t* out) {\n"
     << "  int16_t col[" << g.patch_size() << "];\n"
     << "  for (int oy = 0; oy < " << g.out_h() << "; ++oy) {\n"
     << "    for (int ox = 0; ox < " << g.out_w() << "; ++ox) {\n"
     << "      int idx = 0;\n"
     << "      for (int ky = 0; ky < " << g.kernel << "; ++ky) {\n"
     << "        int iy = oy * " << g.stride << " - " << g.pad << " + ky;\n"
     << "        for (int kx = 0; kx < " << g.kernel << "; ++kx) {\n"
     << "          int ix = ox * " << g.stride << " - " << g.pad << " + kx;\n"
     << "          int inside = iy >= 0 && iy < " << g.in_h
     << " && ix >= 0 && ix < " << g.in_w << ";\n"
     << "          for (int c = 0; c < " << g.in_c << "; ++c, ++idx)\n"
     << "            col[idx] = inside ? (int16_t)((int32_t)in[(iy * "
     << g.in_w << " + ix) * " << g.in_c << " + c] - ("
     << u.in_q.zero_point << ")) : 0;\n"
     << "        }\n"
     << "      }\n"
     << "      int8_t* orow = out + (oy * " << g.out_w() << " + ox) * "
     << g.out_c << ";\n"
     << "      int32_t acc;\n";

  const std::string p = opt.symbol_prefix;
  for (int oc = 0; oc < g.out_c; ++oc) {
    const ChannelProgram& prog = u.channels[static_cast<size_t>(oc)];
    os << "      /* channel " << oc << " */\n";
    os << "      acc = " << prog.bias << ";\n";
    for (const MacPairOp& op : prog.pairs) {
      os << "      acc = " << p << "_smlad(0x" << std::hex << op.weight_const
         << std::dec << "u, " << p << "_pack(col[" << op.operand_b
         << "], col[" << op.operand_a << "]), acc);\n";
    }
    if (prog.has_single) {
      os << "      acc = " << p << "_smlabb(" << p << "_pack(0, "
         << prog.single.weight << "), " << p << "_pack(0, col["
         << prog.single.operand << "]), acc);\n";
    }
    os << "      orow[" << oc << "] = " << p << "_clamp8(" << p
       << "_requant(acc, " << prog.requant.mult << ", " << prog.requant.shift
       << ") + (" << u.out_q.zero_point << "), " << u.act_min << ", "
       << u.act_max << ");\n";
  }
  os << "    }\n  }\n}\n\n";
}

void emit_pool(std::ostringstream& os, const QMaxPool& pool, int index,
               const CodegenOptions& opt) {
  // Covering geometry is validated at model construction, so the window
  // loops need no edge guards.
  validate_pool_geometry(pool.in_h, pool.in_w, pool.kernel, pool.stride,
                         "codegen maxpool");
  const std::string fn =
      opt.symbol_prefix + "_pool" + std::to_string(index);
  os << "static void " << fn << "(const int8_t* in, int8_t* out) {\n"
     << "  for (int oy = 0; oy < " << pool.out_h() << "; ++oy)\n"
     << "    for (int ox = 0; ox < " << pool.out_w() << "; ++ox)\n"
     << "      for (int ch = 0; ch < " << pool.channels << "; ++ch) {\n"
     << "        int8_t best = -128;\n"
     << "        for (int ky = 0; ky < " << pool.kernel << "; ++ky) {\n"
     << "          int iy = oy * " << pool.stride << " + ky;\n"
     << "          for (int kx = 0; kx < " << pool.kernel << "; ++kx) {\n"
     << "            int ix = ox * " << pool.stride << " + kx;\n"
     << "            int8_t v = in[(iy * " << pool.in_w << " + ix) * "
     << pool.channels << " + ch];\n"
     << "            if (v > best) best = v;\n"
     << "          }\n"
     << "        }\n"
     << "        out[(oy * " << pool.out_w() << " + ox) * " << pool.channels
     << " + ch] = best;\n"
     << "      }\n}\n\n";
}

void emit_avgpool(std::ostringstream& os, const QAvgPool& pool, int index,
                  const CodegenOptions& opt) {
  validate_pool_geometry(pool.in_h, pool.in_w, pool.kernel, pool.stride,
                         "codegen avgpool");
  const int count = pool.kernel * pool.kernel;
  const std::string fn =
      opt.symbol_prefix + "_avgpool" + std::to_string(index);
  os << "static void " << fn << "(const int8_t* in, int8_t* out) {\n"
     << "  for (int oy = 0; oy < " << pool.out_h() << "; ++oy)\n"
     << "    for (int ox = 0; ox < " << pool.out_w() << "; ++ox)\n"
     << "      for (int ch = 0; ch < " << pool.channels << "; ++ch) {\n"
     << "        int32_t sum = 0;\n"
     << "        for (int ky = 0; ky < " << pool.kernel << "; ++ky) {\n"
     << "          int iy = oy * " << pool.stride << " + ky;\n"
     << "          for (int kx = 0; kx < " << pool.kernel << "; ++kx) {\n"
     << "            int ix = ox * " << pool.stride << " + kx;\n"
     << "            sum += in[(iy * " << pool.in_w << " + ix) * "
     << pool.channels << " + ch];\n"
     << "          }\n"
     << "        }\n"
     << "        /* round half away from zero */\n"
     << "        int32_t avg = sum >= 0 ? (sum + " << count / 2 << ") / "
     << count << " : (sum - " << count / 2 << ") / " << count << ";\n"
     << "        out[(oy * " << pool.out_w() << " + ox) * " << pool.channels
     << " + ch] = " << opt.symbol_prefix << "_clamp8(avg, -128, 127);\n"
     << "      }\n}\n\n";
}

void emit_qadd(std::ostringstream& os, const QAdd& add, int index,
               const CodegenOptions& opt) {
  const std::string p = opt.symbol_prefix;
  const std::string fn = p + "_add" + std::to_string(index);
  os << "/* add" << index << ": " << add.h << "x" << add.w << "x"
     << add.channels
     << " residual merge, both operands requantized to the output scale"
     << " */\n";
  os << "static void " << fn
     << "(const int8_t* in_a, const int8_t* in_b, int8_t* out) {\n"
     << "  for (int i = 0; i < " << add.elems() << "; ++i) {\n"
     << "    int32_t a = " << p << "_requant((int32_t)in_a[i] - ("
     << add.in_a.zero_point << "), " << add.requant_a.mult << ", "
     << add.requant_a.shift << ");\n"
     << "    int32_t b = " << p << "_requant((int32_t)in_b[i] - ("
     << add.in_b.zero_point << "), " << add.requant_b.mult << ", "
     << add.requant_b.shift << ");\n"
     << "    out[i] = " << p << "_clamp8(a + b + (" << add.out.zero_point
     << "), " << add.act_min << ", " << add.act_max << ");\n"
     << "  }\n}\n\n";
}

void emit_dense(std::ostringstream& os, const QDense& fc, int index,
                const CodegenOptions& opt) {
  const std::string p = opt.symbol_prefix;
  const std::string fn = p + "_fc" + std::to_string(index);
  os << "static const int8_t " << fn << "_w[" << fc.out_dim << "]["
     << fc.in_dim << "] = {\n";
  for (int o = 0; o < fc.out_dim; ++o) {
    os << "  {";
    for (int i = 0; i < fc.in_dim; ++i) {
      if (i) os << ",";
      os << static_cast<int>(
          fc.weights[static_cast<size_t>(o) * fc.in_dim + i]);
    }
    os << "},\n";
  }
  os << "};\n"
     << "static const int32_t " << fn << "_b[" << fc.out_dim << "] = {";
  for (int o = 0; o < fc.out_dim; ++o) {
    if (o) os << ",";
    os << fc.bias[static_cast<size_t>(o)];
  }
  os << "};\n"
     << "static void " << fn << "(const int8_t* in, int8_t* out) {\n"
     << "  for (int o = 0; o < " << fc.out_dim << "; ++o) {\n"
     << "    int32_t acc = " << fn << "_b[o];\n"
     << "    for (int i = 0; i < " << fc.in_dim << "; ++i)\n"
     << "      acc += ((int32_t)in[i] - (" << fc.in.zero_point << ")) * "
     << fn << "_w[o][i];\n"
     << "    out[o] = " << p << "_clamp8(" << p << "_requant(acc, "
     << fc.requant.mult << ", " << fc.requant.shift << ") + ("
     << fc.out.zero_point << "), " << fc.act_min << ", " << fc.act_max
     << ");\n"
     << "  }\n}\n\n";
}

}  // namespace

std::string emit_model_c(const QModel& model, const SkipMask* mask,
                         const CodegenOptions& options) {
  if (mask != nullptr) mask->validate(model);
  // The emitted input stage assumes the standard [0,1] u8 scheme where
  // quantization degenerates to `pixel + zero_point`.
  check(std::abs(model.input.scale - 1.0f / 255.0f) < 1e-9f,
        "codegen requires the standard 1/255 input scale");
  std::ostringstream os;
  const std::string p = options.symbol_prefix;
  emit_prelude(os, p);

  // Layer functions, one per plan step and numbered per kind, and the
  // runner's call of each. The runner's activations are one static arena
  // of arena_elems with every tensor at its plan offset, so peak RAM
  // matches the engines' liveness placement (ping-pong on chains,
  // interval coloring on DAGs).
  const ExecPlan plan = ExecPlan::compile(model);
  check(!plan.steps.empty(), "model has no layers to emit");
  const auto at = [&p](const PlanTensor& t) {
    return p + "_arena + " + std::to_string(t.offset);
  };
  std::ostringstream calls;
  int conv_i = 0, dw_i = 0, pool_i = 0, avgpool_i = 0, fc_i = 0, add_i = 0;
  for (const ExecStep& step : plan.steps) {
    const QLayer& layer = model.layers[static_cast<size_t>(step.layer)];
    const uint8_t* skip = mask != nullptr && step.approx_ordinal >= 0
                              ? mask->row(step.approx_ordinal)
                              : nullptr;
    std::string fn;
    const OpDescriptor d = describe_layer(layer);
    if (d.skippable) {
      const std::string name = d.kind == OpKind::kDepthwise
                                   ? "dw" + std::to_string(dw_i++)
                                   : "conv" + std::to_string(conv_i++);
      emit_unpacked(os, UnpackedLayer::build(layer, skip), name,
                    d.skippable_operand_count(), options);
      fn = p + "_" + name;
    } else if (const auto* pool = std::get_if<QMaxPool>(&layer)) {
      emit_pool(os, *pool, pool_i, options);
      fn = p + "_pool" + std::to_string(pool_i++);
    } else if (const auto* pool = std::get_if<QAvgPool>(&layer)) {
      emit_avgpool(os, *pool, avgpool_i, options);
      fn = p + "_avgpool" + std::to_string(avgpool_i++);
    } else if (const auto* fc = std::get_if<QDense>(&layer)) {
      emit_dense(os, *fc, fc_i, options);
      fn = p + "_fc" + std::to_string(fc_i++);
    } else if (const auto* add = std::get_if<QAdd>(&layer)) {
      emit_qadd(os, *add, add_i, options);
      fn = p + "_add" + std::to_string(add_i++);
    }
    calls << "  " << fn << "(";
    for (const PlanTensor& in : step.in)
      if (in.id >= 0) calls << at(in) << ", ";
    calls << at(step.out) << ");\n";
  }

  const PlanTensor& input = plan.tensors.front();
  const PlanTensor& output = plan.tensors.back();
  os << "const int " << p << "_num_classes = " << output.elems << ";\n\n"
     << "void " << p << "_run(const uint8_t* image, int8_t* logits) {\n"
     << "  static int8_t " << p << "_arena[" << plan.arena_elems << "];\n"
     << "  for (int i = 0; i < " << input.elems << "; ++i)\n"
     << "    " << p << "_arena[" << input.offset
     << " + i] = (int8_t)((int32_t)image[i] + (" << model.input.zero_point
     << "));\n"
     << calls.str() << "  memcpy(logits, " << at(output) << ", "
     << output.elems << ");\n"
     << "}\n";

  if (model.head == TaskHead::kScore) {
    // Scored head: emit the threshold and the score reduction. The float
    // scales are hex literals (exact round-trip of the engine's float
    // values) and the accumulation is double in index order, so the C
    // score is bit-exact with InferenceEngine::score on the same image.
    const auto* head_fc = std::get_if<QDense>(&model.layers.back());
    check(head_fc != nullptr,
          "scored model must end in a fully-connected layer");
    const int64_t in_elems =
        static_cast<int64_t>(model.in_h) * model.in_w * model.in_c;
    check(head_fc->out_dim == in_elems,
          "scored head width must equal the input element count");
    std::ostringstream hexf;
    hexf << std::hexfloat << static_cast<double>(model.score_threshold);
    std::ostringstream out_scale, in_scale;
    out_scale << std::hexfloat << static_cast<double>(head_fc->out.scale);
    in_scale << std::hexfloat << static_cast<double>(model.input.scale);
    os << "\n/* anomaly decision: score > threshold (threshold = "
       << model.score_threshold << ") */\n"
       << "const float " << p << "_score_threshold = " << hexf.str()
       << "f;\n\n"
       << "double " << p
       << "_score(const uint8_t* image, int8_t* reconstruction) {\n"
       << "  " << p << "_run(image, reconstruction);\n"
       << "  double sum = 0.0;\n"
       << "  for (int i = 0; i < " << in_elems << "; ++i) {\n"
       // q_input = pixel + zero_point never saturates for the standard
       // [0,1] scheme, so dequantizing it collapses to scale * pixel.
       << "    double diff = (double)(" << out_scale.str()
       << "f * (float)((int32_t)reconstruction[i] - ("
       << head_fc->out.zero_point << ")))\n"
       << "                - (double)(" << in_scale.str()
       << "f * (float)image[i]);\n"
       << "    sum += diff * diff;\n"
       << "  }\n"
       << "  return sum / " << in_elems << ".0;\n"
       << "}\n";
  }
  return os.str();
}

void write_text_file(const std::string& path, const std::string& text) {
  const std::filesystem::path fspath(path);
  if (fspath.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(fspath.parent_path(), ec);
    check(!ec, "cannot create directory for " + path);
  }
  std::ofstream out(path);
  check(out.good(), "cannot open for writing: " + path);
  out << text;
  check(out.good(), "write failed: " + path);
}

}  // namespace ataman
