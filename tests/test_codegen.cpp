// Code generator: structural properties of the emitted C and an
// end-to-end host-compile equivalence check against the unpacked engine.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "src/cmsisnn/packed_kernels.hpp"
#include "src/cmsisnn/smlad.hpp"
#include "src/codegen/c_emitter.hpp"
#include "src/common/error.hpp"
#include "src/core/exec_plan.hpp"
#include "src/unpack/unpacked_engine.hpp"
#include "tests/test_util.hpp"

namespace ataman {
namespace {

using testing::make_tiny_qmodel;

TEST(Codegen, EmitsHardwiredConstantsAndNoConvWeightArrays) {
  const QModel m = make_tiny_qmodel(80);
  const std::string code = emit_model_c(m);
  // Straight-line SMLAD calls with hex weight constants.
  EXPECT_NE(code.find("_smlad(0x"), std::string::npos);
  // Conv layers have no weight arrays (FC does).
  EXPECT_EQ(code.find("conv0_w"), std::string::npos);
  EXPECT_NE(code.find("fc0_w"), std::string::npos);
  // Runner and class count exported.
  EXPECT_NE(code.find("ataman_run"), std::string::npos);
  EXPECT_NE(code.find("ataman_num_classes = 10"), std::string::npos);
  // Host shim present and ARM intrinsic path guarded.
  EXPECT_NE(code.find("__ARM_FEATURE_DSP"), std::string::npos);
}

TEST(Codegen, SkippedOperandsDisappearFromCode) {
  const QModel m = make_tiny_qmodel(81);
  SkipMask mask = SkipMask::none(m);
  for (auto& v : mask.masks[0]) v = 1;  // skip all of conv0
  const std::string exact = emit_model_c(m);
  const std::string approx = emit_model_c(m, &mask);
  EXPECT_LT(approx.size(), exact.size());
  // conv0 in the approximate build degenerates to bias-only channels:
  // its section should contain no smlad between "conv0" and "conv1".
  const size_t c0 = approx.find("_conv0");
  const size_t c1 = approx.find("_conv1");
  ASSERT_NE(c0, std::string::npos);
  ASSERT_NE(c1, std::string::npos);
  EXPECT_EQ(approx.substr(c0, c1 - c0).find("_smlad(0x"), std::string::npos);
}

TEST(Codegen, CustomPrefix) {
  const QModel m = make_tiny_qmodel(82);
  CodegenOptions opt;
  opt.symbol_prefix = "mynet";
  const std::string code = emit_model_c(m, nullptr, opt);
  EXPECT_NE(code.find("void mynet_run"), std::string::npos);
  EXPECT_EQ(code.find("void ataman_run"), std::string::npos);
}

// The runner's only mutable static storage is one activation arena of
// the plan's arena_elems bytes, on chains and on residual DAGs alike.
TEST(Codegen, StaticActivationBytesEqualThePlanArena) {
  for (const QModel& m : {make_tiny_qmodel(84),
                          testing::make_residual_qmodel(85)}) {
    const std::string code = emit_model_c(m);
    const std::string arena = "static int8_t ataman_arena[" +
                              std::to_string(ExecPlan::compile(m).arena_elems) +
                              "];";
    EXPECT_NE(code.find(arena), std::string::npos) << m.name;
    size_t buffers = 0;
    for (size_t at = code.find("static int8_t "); at != std::string::npos;
         at = code.find("static int8_t ", at + 1))
      ++buffers;
    EXPECT_EQ(buffers, 1u) << m.name;
  }
}

TEST(Codegen, WriteTextFileCreatesDirectories) {
  const std::string dir = "/tmp/ataman_codegen_test_dir";
  std::filesystem::remove_all(dir);
  write_text_file(dir + "/nested/file.c", "int x;\n");
  std::ifstream in(dir + "/nested/file.c");
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "int x;");
  std::filesystem::remove_all(dir);
}

// Single-conv models over varied geometries, for the parameterized
// compile test: kernel 5, stride 2, odd channels, no padding all hit
// different emitter paths.
QModel single_conv_model(int in_c, int out_c, int kernel, int stride,
                         int pad, uint64_t seed) {
  QModel m;
  m.name = "gen-test";
  m.in_h = 11;
  m.in_w = 11;
  m.in_c = in_c;
  m.input = {1.0f / 255.0f, -128};
  ConvGeom g;
  g.in_h = 11; g.in_w = 11; g.in_c = in_c;
  g.out_c = out_c; g.kernel = kernel; g.stride = stride; g.pad = pad;
  QConv2D conv = ataman::testing::make_random_qconv(g, seed);
  conv.in = m.input;
  refresh_requant(conv);
  m.layers.emplace_back(std::move(conv));
  return m;
}

// Compiles the generated C with the host compiler and compares logits
// against the unpacked engine on random images. Skipped when no host
// compiler is available.
class CodegenCompile : public ::testing::Test {
 protected:
  static bool have_cc() { return std::system("cc --version > /dev/null 2>&1") == 0; }
};

TEST_F(CodegenCompile, GeneratedModelMatchesEngineBitExact) {
  if (!have_cc()) GTEST_SKIP() << "no host C compiler";
  const QModel m = make_tiny_qmodel(83);
  SkipMask mask = SkipMask::none(m);
  Rng rng(84);
  for (auto& layer_mask : mask.masks)
    for (auto& v : layer_mask) v = rng.next_bool(0.3) ? 1 : 0;

  const std::string dir = "/tmp/ataman_codegen_compile";
  std::filesystem::remove_all(dir);
  write_text_file(dir + "/model.c", emit_model_c(m, &mask));

  // Driver: read image bytes on stdin, print logits.
  const std::string driver = R"(
#include <stdint.h>
#include <stdio.h>
extern void ataman_run(const uint8_t* image, int8_t* logits);
extern const int ataman_num_classes;
int main(void) {
  uint8_t img[12*12*3];
  if (fread(img, 1, sizeof img, stdin) != sizeof img) return 1;
  int8_t logits[64];
  ataman_run(img, logits);
  for (int i = 0; i < ataman_num_classes; ++i) printf("%d\n", (int)logits[i]);
  return 0;
}
)";
  write_text_file(dir + "/main.c", driver);
  const std::string compile = "cc -std=c99 -O2 " + dir + "/model.c " + dir +
                              "/main.c -o " + dir + "/runner 2> " + dir +
                              "/cc.log";
  ASSERT_EQ(std::system(compile.c_str()), 0) << "generated C failed to compile";

  const UnpackedEngine engine(&m, &mask);
  for (int trial = 0; trial < 5; ++trial) {
    const auto img = testing::make_random_image(12 * 12 * 3, 900 + trial);
    const std::string img_path = dir + "/img.bin";
    {
      std::ofstream out(img_path, std::ios::binary);
      out.write(reinterpret_cast<const char*>(img.data()),
                static_cast<std::streamsize>(img.size()));
    }
    const std::string run =
        dir + "/runner < " + img_path + " > " + dir + "/out.txt";
    ASSERT_EQ(std::system(run.c_str()), 0);

    std::ifstream in(dir + "/out.txt");
    std::vector<int8_t> got;
    int v = 0;
    while (in >> v) got.push_back(static_cast<int8_t>(v));
    EXPECT_EQ(got, engine.run(img)) << "trial " << trial;
  }
  std::filesystem::remove_all(dir);
}

// Per-channel requant: spread every conv channel's weight scale apart so
// the emitted programs carry genuinely distinct requant constants, then
// compile the generated C on the host and compare bitwise against the
// unpacked engine (which bakes the same per-channel constants).
TEST_F(CodegenCompile, PerChannelRequantMatchesEngineBitExact) {
  if (!have_cc()) GTEST_SKIP() << "no host C compiler";
  QModel m = make_tiny_qmodel(85);
  testing::spread_model_wscales(m, 86);

  const std::string dir = "/tmp/ataman_codegen_perchannel";
  std::filesystem::remove_all(dir);
  write_text_file(dir + "/model.c", emit_model_c(m));
  const std::string driver = R"(
#include <stdint.h>
#include <stdio.h>
extern void ataman_run(const uint8_t* image, int8_t* logits);
extern const int ataman_num_classes;
int main(void) {
  uint8_t img[12*12*3];
  if (fread(img, 1, sizeof img, stdin) != sizeof img) return 1;
  int8_t logits[64];
  ataman_run(img, logits);
  for (int i = 0; i < ataman_num_classes; ++i) printf("%d\n", (int)logits[i]);
  return 0;
}
)";
  write_text_file(dir + "/main.c", driver);
  const std::string compile = "cc -std=c99 -O2 " + dir + "/model.c " + dir +
                              "/main.c -o " + dir + "/runner 2> " + dir +
                              "/cc.log";
  ASSERT_EQ(std::system(compile.c_str()), 0) << "generated C failed to compile";

  const UnpackedEngine engine(&m);
  for (int trial = 0; trial < 5; ++trial) {
    const auto img = testing::make_random_image(12 * 12 * 3, 950 + trial);
    {
      std::ofstream out(dir + "/img.bin", std::ios::binary);
      out.write(reinterpret_cast<const char*>(img.data()),
                static_cast<std::streamsize>(img.size()));
    }
    ASSERT_EQ(std::system((dir + "/runner < " + dir + "/img.bin > " + dir +
                           "/out.txt")
                              .c_str()),
              0);
    std::ifstream in(dir + "/out.txt");
    std::vector<int8_t> got;
    int v = 0;
    while (in >> v) got.push_back(static_cast<int8_t>(v));
    EXPECT_EQ(got, engine.run(img)) << "trial " << trial;
  }
  std::filesystem::remove_all(dir);
}

// Scored head: the emitted ataman_score must equal InferenceEngine::score
// bitwise (printed with %a, so no decimal rounding hides a difference),
// and its reconstruction bytes must equal run(). The all-0 and all-255
// images are the extremes of the input dequantization.
TEST_F(CodegenCompile, ScoredHeadMatchesEngineBitExact) {
  if (!have_cc()) GTEST_SKIP() << "no host C compiler";
  const QModel m = testing::make_tiny_scored_qmodel(87);
  const int64_t elems = static_cast<int64_t>(m.in_h) * m.in_w * m.in_c;
  ASSERT_EQ(elems, 48);

  const std::string dir = "/tmp/ataman_codegen_scored";
  std::filesystem::remove_all(dir);
  write_text_file(dir + "/model.c", emit_model_c(m));
  const std::string driver = R"(
#include <stdint.h>
#include <stdio.h>
extern double ataman_score(const uint8_t* image, int8_t* reconstruction);
int main(void) {
  uint8_t img[4*4*3];
  int8_t rec[4*4*3];
  while (fread(img, 1, sizeof img, stdin) == sizeof img) {
    printf("%a\n", ataman_score(img, rec));
    for (int i = 0; i < (int)sizeof rec; ++i) printf("%d\n", (int)rec[i]);
  }
  return 0;
}
)";
  write_text_file(dir + "/main.c", driver);
  ASSERT_EQ(std::system(("cc -std=c99 -O2 " + dir + "/model.c " + dir +
                         "/main.c -o " + dir + "/runner 2> " + dir +
                         "/cc.log")
                            .c_str()),
            0)
      << "generated C failed to compile";

  std::vector<std::vector<uint8_t>> images = {
      std::vector<uint8_t>(static_cast<size_t>(elems), 0),
      std::vector<uint8_t>(static_cast<size_t>(elems), 255)};
  for (int trial = 0; trial < 8; ++trial)
    images.push_back(testing::make_random_image(elems, 960 + trial));
  {
    std::ofstream out(dir + "/img.bin", std::ios::binary);
    for (const auto& img : images)
      out.write(reinterpret_cast<const char*>(img.data()),
                static_cast<std::streamsize>(img.size()));
  }
  ASSERT_EQ(std::system((dir + "/runner < " + dir + "/img.bin > " + dir +
                         "/out.txt")
                            .c_str()),
            0);

  const UnpackedEngine engine(&m);
  std::ifstream in(dir + "/out.txt");
  for (size_t i = 0; i < images.size(); ++i) {
    std::string score_hex;
    ASSERT_TRUE(in >> score_hex) << "image " << i;
    EXPECT_EQ(std::strtod(score_hex.c_str(), nullptr),
              engine.score(images[i]))
        << "image " << i;
    std::vector<int8_t> got(static_cast<size_t>(elems));
    for (int8_t& b : got) {
      int v = 0;
      ASSERT_TRUE(in >> v) << "image " << i;
      b = static_cast<int8_t>(v);
    }
    EXPECT_EQ(got, engine.run(images[i])) << "image " << i;
  }
  std::filesystem::remove_all(dir);
}

// The emitted prelude's hand-written helpers against their C++
// definitions, on the operand tables the host kernels are pinned with:
// _requant and _clamp8 on requant_operand_table (the requant8 test's),
// _smlad and _smlabb on the extreme operands of the SMLAD block-step test
// plus seeded random ones. The helpers are static, so the harness
// #includes an emitted model.c. Each requant row takes the next out_zp
// and activation range in turn, so the table covers them all.
TEST_F(CodegenCompile, PreludeHelpersMatchDefinitionsOnOperandTables) {
  if (!have_cc()) GTEST_SKIP() << "no host C compiler";
  const std::string dir = "/tmp/ataman_codegen_prelude";
  std::filesystem::remove_all(dir);
  write_text_file(dir + "/model.c", emit_model_c(make_tiny_qmodel(88)));
  // "r acc mult shift zp lo hi" prints _requant and the emitted epilogue
  // _clamp8(_requant + zp, lo, hi), or "ovf" where that int32 add would
  // overflow; "s x y acc" prints _smlad and _smlabb.
  const std::string harness = R"(
#include <stdio.h>
#include "model.c"
int main(void) {
  char op;
  long long a, b, c, zp, lo, hi;
  while (scanf(" %c %lld %lld %lld", &op, &a, &b, &c) == 4) {
    if (op == 's') {
      printf("%ld %ld\n",
             (long)ataman_smlad((uint32_t)a, (uint32_t)b, (int32_t)c),
             (long)ataman_smlabb((uint32_t)a, (uint32_t)b, (int32_t)c));
      continue;
    }
    if (scanf("%lld %lld %lld", &zp, &lo, &hi) != 3) return 1;
    int32_t r = ataman_requant((int32_t)a, (int32_t)b, (int32_t)c);
    if (r + zp < INT32_MIN || r + zp > INT32_MAX) {
      printf("%ld ovf\n", (long)r);
    } else {
      printf("%ld %d\n", (long)r,
             (int)ataman_clamp8(r + (int32_t)zp, (int32_t)lo, (int32_t)hi));
    }
  }
  return 0;
}
)";
  write_text_file(dir + "/main.c", harness);

  struct RequantRow {
    int32_t acc;
    QuantizedMultiplier qm;
    int32_t zp, lo, hi;
  };
  std::vector<RequantRow> requant_rows;
  for (const testing::RequantOperands& row :
       testing::requant_operand_table(8)) {
    for (const int32_t acc : row.accs) {
      const size_t k = requant_rows.size();
      const auto [lo, hi] = testing::kRequantActRanges[k % 3];
      requant_rows.push_back(
          {acc, row.qm, static_cast<int32_t>(k * 37 % 256) - 128, lo, hi});
    }
  }
  struct SmladRow {
    uint32_t x, y;
    int32_t acc;
  };
  std::vector<SmladRow> smlad_rows;
  for (const int8_t whi : testing::kWeightExtremes)
    for (const int8_t wlo : testing::kWeightExtremes)
      for (const int32_t acc : testing::kAccExtremes)
        for (const int16_t a : testing::kQ15Extremes)
          for (const int16_t b : testing::kQ15Extremes)
            smlad_rows.push_back(
                {pack_weight_pair(whi, wlo), pack_q15_pair(b, a), acc});
  smlad_rows.push_back({pack_q15_pair(-32768, -32768),
                        pack_q15_pair(-32768, -32768), 5});
  Rng rng(89);
  for (int i = 0; i < 1000; ++i) {
    smlad_rows.push_back({static_cast<uint32_t>(rng.next_u64()),
                          static_cast<uint32_t>(rng.next_u64()),
                          static_cast<int32_t>(rng.next_u64())});
  }
  {
    std::ofstream table(dir + "/table.txt");
    for (const RequantRow& r : requant_rows) {
      table << "r " << r.acc << " " << r.qm.mult << " " << r.qm.shift << " "
            << r.zp << " " << r.lo << " " << r.hi << "\n";
    }
    for (const SmladRow& s : smlad_rows)
      table << "s " << s.x << " " << s.y << " " << s.acc << "\n";
  }
  ASSERT_EQ(std::system(("cc -std=c99 -O2 " + dir + "/main.c -o " + dir +
                         "/harness 2> " + dir + "/cc.log")
                            .c_str()),
            0)
      << "prelude harness failed to compile";
  ASSERT_EQ(std::system((dir + "/harness < " + dir + "/table.txt > " + dir +
                         "/out.txt")
                            .c_str()),
            0);

  std::ifstream in(dir + "/out.txt");
  std::string first_mismatch;
  int overflows = 0;
  for (const RequantRow& r : requant_rows) {
    int64_t got_requant = 0;
    std::string got_clamp;
    ASSERT_TRUE(in >> got_requant >> got_clamp);
    const int32_t want_requant = multiply_by_quantized_multiplier(r.acc, r.qm);
    const int64_t sum = int64_t{want_requant} + r.zp;
    const bool overflow = sum < std::numeric_limits<int32_t>::min() ||
                          sum > std::numeric_limits<int32_t>::max();
    overflows += overflow;
    const std::string want_clamp =
        overflow ? "ovf"
                 : std::to_string(
                       requant_clamp(r.acc, r.qm, r.zp, r.lo, r.hi));
    if (first_mismatch.empty() &&
        (got_requant != want_requant || got_clamp != want_clamp)) {
      first_mismatch = "requant acc=" + std::to_string(r.acc) +
                       " mult=" + std::to_string(r.qm.mult) +
                       " shift=" + std::to_string(r.qm.shift) +
                       " zp=" + std::to_string(r.zp) + ": got " +
                       std::to_string(got_requant) + " " + got_clamp +
                       ", want " + std::to_string(want_requant) + " " +
                       want_clamp;
    }
  }
  for (const SmladRow& s : smlad_rows) {
    int64_t got_smlad = 0, got_smlabb = 0;
    ASSERT_TRUE(in >> got_smlad >> got_smlabb);
    if (first_mismatch.empty() && (got_smlad != smlad(s.x, s.y, s.acc) ||
                                   got_smlabb != smlabb(s.x, s.y, s.acc))) {
      first_mismatch = "smlad x=" + std::to_string(s.x) +
                       " y=" + std::to_string(s.y) +
                       " acc=" + std::to_string(s.acc);
    }
  }
  EXPECT_EQ(first_mismatch, "");
  // The emitted epilogue adds the zero point in int32, so a row whose
  // scaled value lies within |zp| of an int32 limit (shift >= 0 and a
  // large accumulator) would overflow there: those rows check _requant
  // only. requant_clamp adds in int64.
  RecordProperty("epilogue_overflow_rows", overflows);
  std::filesystem::remove_all(dir);
}

// Geometry sweep: each case exercises a different emitter path (k=5,
// stride 2, no padding, odd channels/patches, 1x1 conv).
struct GenCase {
  int in_c, out_c, kernel, stride, pad;
};

class CodegenGeometry : public ::testing::TestWithParam<GenCase> {
 protected:
  static bool have_cc() {
    return std::system("cc --version > /dev/null 2>&1") == 0;
  }
};

TEST_P(CodegenGeometry, CompilesAndMatchesEngine) {
  if (!have_cc()) GTEST_SKIP() << "no host C compiler";
  const GenCase& c = GetParam();
  const QModel m = single_conv_model(c.in_c, c.out_c, c.kernel, c.stride,
                                     c.pad,
                                     1000 + c.kernel * 13 + c.out_c);
  const auto* conv = std::get_if<QConv2D>(&m.layers[0]);
  ASSERT_NE(conv, nullptr);
  const int64_t out_size =
      static_cast<int64_t>(conv->geom.positions()) * conv->geom.out_c;
  ASSERT_LE(out_size, 2048);

  // Unique directory per case: ctest runs parameterized cases as
  // separate parallel processes.
  const std::string dir = "/tmp/ataman_codegen_geom_" +
                          std::to_string(c.in_c) + "_" +
                          std::to_string(c.out_c) + "_" +
                          std::to_string(c.kernel) + "_" +
                          std::to_string(c.stride) + "_" +
                          std::to_string(c.pad);
  std::filesystem::remove_all(dir);
  write_text_file(dir + "/model.c", emit_model_c(m));
  const std::string driver = R"(
#include <stdint.h>
#include <stdio.h>
extern void ataman_run(const uint8_t* image, int8_t* logits);
extern const int ataman_num_classes;
int main(void) {
  uint8_t img[11*11*)" + std::to_string(c.in_c) + R"(];
  if (fread(img, 1, sizeof img, stdin) != sizeof img) return 1;
  static int8_t out[2048];
  ataman_run(img, out);
  for (int i = 0; i < ataman_num_classes; ++i) printf("%d\n", (int)out[i]);
  return 0;
}
)";
  write_text_file(dir + "/main.c", driver);
  ASSERT_EQ(std::system(("cc -std=c99 -O1 " + dir + "/model.c " + dir +
                         "/main.c -o " + dir + "/runner 2> " + dir +
                         "/cc.log")
                            .c_str()),
            0);

  const UnpackedEngine engine(&m);
  const auto img =
      testing::make_random_image(11 * 11 * c.in_c, 2000 + c.out_c);
  {
    std::ofstream out(dir + "/img.bin", std::ios::binary);
    out.write(reinterpret_cast<const char*>(img.data()),
              static_cast<std::streamsize>(img.size()));
  }
  ASSERT_EQ(std::system((dir + "/runner < " + dir + "/img.bin > " + dir +
                         "/out.txt")
                            .c_str()),
            0);
  std::ifstream in(dir + "/out.txt");
  std::vector<int8_t> got;
  int v = 0;
  while (in >> v) got.push_back(static_cast<int8_t>(v));
  EXPECT_EQ(got, engine.run(img));
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CodegenGeometry,
    ::testing::Values(GenCase{3, 4, 3, 1, 1},    // RGB stem
                      GenCase{2, 3, 5, 1, 2},    // k=5
                      GenCase{5, 4, 3, 2, 0},    // stride 2, no pad
                      GenCase{1, 8, 1, 1, 0},    // 1x1 conv
                      GenCase{4, 6, 5, 2, 2}));  // k=5 stride 2

}  // namespace
}  // namespace ataman
