// Backward compatibility against a checked-in pre-per-channel artifact.
//
// tests/golden/micronet_pertensor_pr8.qm was serialized by the per-tensor
// quantizer (before the per-channel weight-quantization change): it has
// no per-channel trailer, only the inline scalar w_scale/requant slots.
// The loader must broadcast those scalars into per-channel vectors and
// reproduce the recorded logits bitwise on every backend — old deployed
// artifacts keep working, bit for bit. A copy of it with a truncated
// weight or bias tensor, or a zero conv or pool stride, must fail to load,
// and so must a scored head on a model that cannot reconstruct its input.
//
// The saved bytes are pinned too: resaving the golden file keeps its bytes
// as the prefix of the new file, four fixtures (all six layer kinds, a DAG
// trailer, a scored head, spread per-channel scales) save to a recorded
// size and FNV-1a digest, and load followed by save reproduces every file.
// A forged count larger than the bytes left in the file must throw before
// anything is allocated.
//
// The golden logits were recorded with the pre-change library on four
// deterministic formula images (no RNG involved, so the inputs are
// regenerable forever): img[k][i] = uint8((i*31 + k*97 + 13) & 0xFF).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/core/engine_iface.hpp"
#include "src/quant/qmodel_io.hpp"
#include "tests/test_util.hpp"

#ifndef ATAMAN_TEST_DATA_DIR
#error "ATAMAN_TEST_DATA_DIR must point at the tests/ source directory"
#endif

namespace ataman {
namespace {

const std::string kGoldenDir = std::string(ATAMAN_TEST_DATA_DIR) + "/golden";

std::vector<uint8_t> formula_image(int k, int64_t elems) {
  std::vector<uint8_t> img(static_cast<size_t>(elems));
  for (int64_t i = 0; i < elems; ++i) {
    img[static_cast<size_t>(i)] = static_cast<uint8_t>(
        (static_cast<uint32_t>(i) * 31u + static_cast<uint32_t>(k) * 97u +
         13u) &
        0xFF);
  }
  return img;
}

struct GoldenLogits {
  int images = 0;
  int classes = 0;
  std::vector<std::vector<int8_t>> logits;
};

GoldenLogits load_golden_logits(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  GoldenLogits g;
  std::string key;
  char eq = 0;
  // Header line: "images=N logits=M".
  in >> key;
  EXPECT_EQ(key.substr(0, 7), "images=");
  g.images = std::stoi(key.substr(7));
  in >> key;
  EXPECT_EQ(key.substr(0, 7), "logits=");
  g.classes = std::stoi(key.substr(7));
  (void)eq;
  for (int k = 0; k < g.images; ++k) {
    std::vector<int8_t> row;
    for (int c = 0; c < g.classes; ++c) {
      int v = 0;
      in >> v;
      row.push_back(static_cast<int8_t>(v));
    }
    g.logits.push_back(std::move(row));
  }
  return g;
}

std::vector<uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

uint64_t fnv1a64(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ULL;
  return h;
}

std::string temp_qm(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// Saves `m`, then loads that file and saves it again; returns the first
// file's bytes and expects the second to match them.
std::vector<uint8_t> save_and_resave(const QModel& m, const char* label) {
  const std::string first = temp_qm("ataman_bytepin_a.qm");
  const std::string second = temp_qm("ataman_bytepin_b.qm");
  save_qmodel(m, first);
  save_qmodel(load_qmodel(first), second);
  const std::vector<uint8_t> bytes = read_bytes(first);
  EXPECT_EQ(read_bytes(second), bytes) << label << ": load + save drifted";
  std::remove(first.c_str());
  std::remove(second.c_str());
  return bytes;
}

TEST(GoldenCompat, PerTensorArtifactLoadsAsBroadcastVectors) {
  const QModel m = load_qmodel(kGoldenDir + "/micronet_pertensor_pr8.qm");
  int conv_layers = 0;
  for (const QLayer& layer : m.layers) {
    if (const auto* conv = std::get_if<QConv2D>(&layer)) {
      ++conv_layers;
      ASSERT_EQ(static_cast<int>(conv->w_scales.size()), conv->geom.out_c);
      ASSERT_EQ(conv->w_scales.size(), conv->requant.size());
      // Pre-per-channel artifact: one scalar broadcast to every channel.
      for (size_t c = 1; c < conv->w_scales.size(); ++c) {
        EXPECT_EQ(conv->w_scales[c], conv->w_scales[0]) << "channel " << c;
        EXPECT_EQ(conv->requant[c].mult, conv->requant[0].mult)
            << "channel " << c;
        EXPECT_EQ(conv->requant[c].shift, conv->requant[0].shift)
            << "channel " << c;
      }
    } else if (const auto* dw = std::get_if<QDepthwiseConv2D>(&layer)) {
      ASSERT_EQ(static_cast<int>(dw->w_scales.size()), dw->channels);
      ASSERT_EQ(dw->w_scales.size(), dw->requant.size());
      for (size_t c = 1; c < dw->w_scales.size(); ++c) {
        EXPECT_EQ(dw->w_scales[c], dw->w_scales[0]) << "channel " << c;
      }
    }
  }
  EXPECT_GT(conv_layers, 0);
}

TEST(GoldenCompat, PerTensorArtifactReproducesGoldenLogitsOnAllEngines) {
  const QModel m = load_qmodel(kGoldenDir + "/micronet_pertensor_pr8.qm");
  const GoldenLogits golden =
      load_golden_logits(kGoldenDir + "/micronet_pertensor_pr8_logits.txt");
  ASSERT_EQ(golden.images, 4);
  const int64_t elems = static_cast<int64_t>(m.in_h) * m.in_w * m.in_c;

  EngineConfig cfg;
  cfg.model = &m;
  for (const char* name : {"ref", "cmsis", "unpacked", "xcube"}) {
    const auto engine = EngineRegistry::instance().create(name, cfg);
    for (int k = 0; k < golden.images; ++k) {
      const auto img = formula_image(k, elems);
      EXPECT_EQ(engine->run(img), golden.logits[static_cast<size_t>(k)])
          << name << " image " << k;
    }
  }
}

TEST(GoldenCompat, ReserializedArtifactStaysBitCompatible) {
  // Loading the legacy artifact and saving it back appends the (all-
  // broadcast) per-channel trailer; reloading that must reproduce the
  // golden logits too — save/load is idempotent across the format bump.
  const QModel m = load_qmodel(kGoldenDir + "/micronet_pertensor_pr8.qm");
  const std::string tmp = "/tmp/ataman_golden_resave.qm";
  save_qmodel(m, tmp);
  const QModel reloaded = load_qmodel(tmp);
  std::remove(tmp.c_str());

  const GoldenLogits golden =
      load_golden_logits(kGoldenDir + "/micronet_pertensor_pr8_logits.txt");
  const int64_t elems = static_cast<int64_t>(m.in_h) * m.in_w * m.in_c;
  EngineConfig cfg;
  cfg.model = &reloaded;
  const auto engine = EngineRegistry::instance().create("ref", cfg);
  for (int k = 0; k < golden.images; ++k) {
    EXPECT_EQ(engine->run(formula_image(k, elems)),
              golden.logits[static_cast<size_t>(k)])
        << "image " << k;
  }
}

// The golden file ends after its DAG and head trailers, so a resave only
// appends the per-channel trailer: one row per conv/depthwise layer.
TEST(GoldenCompat, ResaveKeepsTheGoldenBytesAsItsPrefix) {
  const std::string path = kGoldenDir + "/micronet_pertensor_pr8.qm";
  const std::vector<uint8_t> golden = read_bytes(path);
  ASSERT_EQ(golden.size(), 9250u);
  const QModel m = load_qmodel(path);
  size_t trailer = 4;
  for (const QLayer& layer : m.layers)
    if (const OpDescriptor d = describe_layer(layer); d.skippable)
      trailer += 4 + 12 * static_cast<size_t>(d.channels);

  const std::vector<uint8_t> resaved = save_and_resave(m, "golden");
  ASSERT_EQ(resaved.size(), golden.size() + trailer);
  EXPECT_TRUE(std::equal(golden.begin(), golden.end(), resaved.begin()));
}

// Sizes and digests recorded from the saver the format was defined by.
TEST(GoldenCompat, FixtureBytesArePinned) {
  struct Pin {
    const char* name;
    QModel model;
    size_t size;
    uint64_t fnv;
  };
  Pin pins[] = {
      {"tiny", testing::make_tiny_qmodel(5), 4097, 0x83be64d35125af24ULL},
      {"residual", testing::make_residual_qmodel(6), 3838,
       0xc7f984e968aa6229ULL},
      {"tiny-vww", testing::make_tiny_vww_qmodel(7), 969,
       0x234fd540027ef519ULL},
      {"tiny-scored", testing::make_tiny_scored_qmodel(8), 2020,
       0x2ad81d8822f75da9ULL},
  };
  for (Pin& pin : pins) {
    testing::spread_model_wscales(pin.model, 99);
    const std::vector<uint8_t> bytes = save_and_resave(pin.model, pin.name);
    EXPECT_EQ(bytes.size(), pin.size) << pin.name;
    EXPECT_EQ(fnv1a64(bytes), pin.fnv)
        << pin.name << std::hex << " digest 0x" << fnv1a64(bytes);
  }
}

template <class T>
void patch(std::vector<uint8_t>& bytes, size_t at, T value) {
  ASSERT_LE(at + sizeof value, bytes.size());
  std::memcpy(bytes.data() + at, &value, sizeof value);
}

void expect_load_rejects(const std::vector<uint8_t>& bytes,
                         const char* label) {
  const std::string path = temp_qm("ataman_forged_count.qm");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  try {
    (void)load_qmodel(path);
    ADD_FAILURE() << label << ": loaded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("count exceeds the bytes left"),
              std::string::npos)
        << label << ": " << e.what();
  }
  std::remove(path.c_str());
}

// Forged counts: the loader bounds each by the bytes left in the file, so
// none of them allocates before it throws.
TEST(GoldenCompat, CountsBeyondTheFileAreRejected) {
  const QModel m = testing::make_residual_qmodel(6);
  ASSERT_FALSE(m.layer_inputs.empty());
  const std::vector<uint8_t> good = save_and_resave(m, "residual");

  // Header: magic string (u64 length + 13 bytes), u32 version, then the
  // name string; the first layer's weight count follows the name,
  // topology, input shape and scale, layer count, kind tag and geometry.
  const size_t name_at = 8 + 13 + 4;
  const size_t weights_at =
      name_at + 8 + m.name.size() + 8 + m.topology.size() + 5 * 4 + 4 + 4 +
      7 * 4;
  // Trailers at the end: DAG, head (8 bytes), per-channel.
  size_t tail = 8 + 4;
  for (const QLayer& layer : m.layers)
    if (const OpDescriptor d = describe_layer(layer); d.skippable)
      tail += 4 + 12 * static_cast<size_t>(d.channels);
  size_t dag = 4;
  for (const std::vector<int>& row : m.layer_inputs)
    dag += 4 + 4 * row.size();
  const size_t dag_at = good.size() - tail - dag;

  std::vector<uint8_t> bytes = good;
  const auto& conv = std::get<QConv2D>(m.layers[0]);
  patch<uint64_t>(bytes, weights_at, conv.weights.size());
  ASSERT_EQ(bytes, good) << "weight count offset";
  patch<uint32_t>(bytes, dag_at, static_cast<uint32_t>(m.layer_inputs.size()));
  patch<uint32_t>(bytes, dag_at + 4, 1);
  ASSERT_EQ(bytes, good) << "DAG trailer offset";

  bytes = good;
  patch<uint32_t>(bytes, dag_at, 0xFFFFFFFFu);
  expect_load_rejects(bytes, "DAG row count");
  bytes = good;
  patch<uint32_t>(bytes, dag_at + 4, 0xFFFFFFFFu);
  expect_load_rejects(bytes, "DAG row length");
  bytes = good;
  patch<uint64_t>(bytes, weights_at, good.size());
  expect_load_rejects(bytes, "weight count");
  bytes = good;
  patch<uint64_t>(bytes, name_at, good.size() - name_at - 8 + 1);
  expect_load_rejects(bytes, "name length");
}

// A .qm whose first conv has a truncated weight or bias vector must be
// rejected at load: engines index both by the layer geometry.
TEST(GoldenCompat, TruncatedWeightOrBiasIsRejected) {
  const QModel m = load_qmodel(kGoldenDir + "/micronet_pertensor_pr8.qm");
  const int conv_index = m.approx_layer_index(0);
  ASSERT_TRUE(std::holds_alternative<QConv2D>(
      m.layers[static_cast<size_t>(conv_index)]));
  int pool_index = -1;
  for (size_t l = 0; l < m.layers.size() && pool_index < 0; ++l)
    if (std::holds_alternative<QMaxPool>(m.layers[l]))
      pool_index = static_cast<int>(l);
  ASSERT_GE(pool_index, 0);
  const std::string tmp = (std::filesystem::temp_directory_path() /
                           "ataman_golden_truncated.qm")
                              .string();
  // Each corruption must throw at load, not crash later: a zero stride
  // would divide by zero when the engine compiles its plan.
  enum class Cut { kBias, kWeights, kConvStride, kPoolStride };
  for (const Cut cut :
       {Cut::kBias, Cut::kWeights, Cut::kConvStride, Cut::kPoolStride}) {
    QModel bad = m;
    auto& conv = std::get<QConv2D>(bad.layers[static_cast<size_t>(conv_index)]);
    switch (cut) {
      case Cut::kBias:
        ASSERT_GT(conv.geom.out_c, 1);
        conv.bias.resize(1);
        break;
      case Cut::kWeights:
        conv.weights.pop_back();
        break;
      case Cut::kConvStride:
        conv.geom.stride = 0;
        break;
      case Cut::kPoolStride:
        std::get<QMaxPool>(bad.layers[static_cast<size_t>(pool_index)])
            .stride = 0;
        break;
    }
    save_qmodel(bad, tmp);
    EXPECT_THROW(load_qmodel(tmp), Error) << "case " << static_cast<int>(cut);
  }
  std::remove(tmp.c_str());
}

// The scored head reduces the last layer's output against the input
// (reconstruction_score), so a .qm that tags a classifier as scored must
// fail at load instead of in a serve worker.
TEST(GoldenCompat, ScoredHeadOnANonReconstructionModelIsRejected) {
  const std::string tmp = (std::filesystem::temp_directory_path() /
                           "ataman_golden_scored_head.qm")
                              .string();
  QModel bad = load_qmodel(kGoldenDir + "/micronet_pertensor_pr8.qm");
  bad.head = TaskHead::kScore;
  save_qmodel(bad, tmp);
  EXPECT_THROW(load_qmodel(tmp), Error);

  const QModel scored = testing::make_tiny_scored_qmodel(77);
  save_qmodel(scored, tmp);
  EXPECT_EQ(load_qmodel(tmp).head, TaskHead::kScore);
  std::remove(tmp.c_str());
}

}  // namespace
}  // namespace ataman
