// Seeded-RNG differential fuzz across the four InferenceEngine backends.
//
// PR 2's parity suite checks crafted cases; this one generates them:
// random small conv/depthwise/pool/avgpool/dense models (random geometry, random quantized
// weights, chained activation params) — optionally with residual QAdd
// skip edges that nest or overlap at random (DAG models) — and
// significance-derived tau skip masks, asserting for every generated
// case that
//   * all four engines match the reference logits/classifications
//     bit-exactly on exact configs,
//   * the masked reference oracle and the unpacked approximate engine
//     match bit-exactly for every tau (masking == instruction removal),
//   * as tau grows, skip sets nest, executed MACs are non-increasing and
//     the unpacked cycle model is strictly cheaper whenever MACs drop,
//   * exact engines' cycle models ignore the mask entirely.
//
// Deterministic by construction: the base seed is fixed (override with
// ATAMAN_FUZZ_SEED to replay a corpus), and every failure message names
// the per-model seed so a single case can be replayed in isolation.
#include <gtest/gtest.h>

#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/engine_iface.hpp"
#include "src/nn/engine.hpp"
#include "src/nn/skip_mask.hpp"
#include "src/sig/act_stats.hpp"
#include "src/sig/significance.hpp"
#include "src/sig/skip_plan.hpp"
#include "src/unpack/unpacked_engine.hpp"
#include "tests/test_util.hpp"

namespace ataman {
namespace {

using testing::make_random_image;
using testing::make_random_qconv;
using testing::make_random_qdense;
using testing::make_random_qdw;

constexpr uint64_t kDefaultBaseSeed = 20260730;
constexpr int kModels = 6;
constexpr int kParityImages = 6;

uint64_t base_seed() {
  if (const char* env = std::getenv("ATAMAN_FUZZ_SEED")) {
    return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  return kDefaultBaseSeed;
}

// Random structurally-valid model: 1-2 conv layers (kernel 1 or 3,
// stride 1, same-padding, so any geometry chains), each optionally
// followed by a 3x3 same-padded depthwise conv, an optional 2x2 pool
// (max or average, randomly), then 0-2 residual blocks (shape-preserving
// conv [+ depthwise] closed by a QAdd whose skip edge targets a random
// earlier same-shape tensor — successive blocks can nest inside or
// overlap each other's edges), final dense head. Channel counts are
// randomized to hit both the even (dual-MAC fast path) and odd
// (leftover single) patch parities; depthwise layers always have an odd
// 9-tap patch, exercising the re-paired single path.
QModel make_random_model(uint64_t seed) {
  Rng rng(seed);
  QModel m;
  m.name = "fuzz-" + std::to_string(seed);
  m.in_h = m.in_w = 2 * rng.next_int(3, 6);  // 6..12, even for pooling
  m.in_c = rng.next_int(1, 4);
  m.input = {1.0f / 255.0f, -128};

  int h = m.in_h, w = m.in_w, c = m.in_c;
  QuantParams upstream = m.input;
  // Per-layer input rows (tensor ids), installed only if an add appears.
  std::vector<std::vector<int>> rows;
  const auto push = [&](QLayer layer) {
    rows.push_back({static_cast<int>(m.layers.size())});
    m.layers.emplace_back(std::move(layer));
  };
  const int conv_count = rng.next_int(1, 2);
  const bool with_pool = rng.next_bool(0.5);
  const bool avg_pool = rng.next_bool(0.5);
  for (int i = 0; i < conv_count; ++i) {
    ConvGeom g;
    g.in_h = h;
    g.in_w = w;
    g.in_c = c;
    g.out_c = rng.next_int(2, 8);
    g.kernel = rng.next_bool(0.5) ? 3 : 1;
    g.stride = 1;
    g.pad = g.kernel / 2;
    QConv2D conv = make_random_qconv(g, rng.next_u64(), /*folded_relu=*/true);
    conv.in = upstream;
    refresh_requant(conv);
    conv.act_min = conv.out.zero_point;
    upstream = conv.out;
    c = g.out_c;
    push(std::move(conv));
    if (rng.next_bool(0.5)) {
      QDepthwiseConv2D dw = make_random_qdw(h, w, c, /*kernel=*/3,
                                            /*stride=*/1, /*pad=*/1,
                                            rng.next_u64(),
                                            /*folded_relu=*/true);
      dw.in = upstream;
      refresh_requant(dw);
      dw.act_min = dw.out.zero_point;
      upstream = dw.out;
      push(std::move(dw));
    }
    if (i == 0 && with_pool) {
      if (avg_pool) {
        QAvgPool pool;
        pool.in_h = h;
        pool.in_w = w;
        pool.channels = c;
        pool.kernel = 2;
        pool.stride = 2;
        push(pool);
      } else {
        QMaxPool pool;
        pool.in_h = h;
        pool.in_w = w;
        pool.channels = c;
        pool.kernel = 2;
        pool.stride = 2;
        push(pool);
      }
      h /= 2;
      w /= 2;
    }
  }

  // Residual tail: shape-preserving blocks closed by QAdd skip edges.
  // Anchors are earlier same-shape tensors; sampling them uniformly makes
  // successive edges nest or overlap at random.
  const int res_blocks = rng.next_int(0, 2);
  bool has_add = false;
  std::vector<std::pair<int, QuantParams>> anchors;
  anchors.emplace_back(static_cast<int>(m.layers.size()), upstream);
  for (int b = 0; b < res_blocks; ++b) {
    ConvGeom g;
    g.in_h = h;
    g.in_w = w;
    g.in_c = c;
    g.out_c = c;  // keep shape so the add operands line up
    g.kernel = rng.next_bool(0.5) ? 3 : 1;
    g.stride = 1;
    g.pad = g.kernel / 2;
    QConv2D conv = make_random_qconv(g, rng.next_u64(), /*folded_relu=*/true);
    conv.in = upstream;
    refresh_requant(conv);
    conv.act_min = conv.out.zero_point;
    upstream = conv.out;
    push(std::move(conv));
    if (rng.next_bool(0.5)) {
      QDepthwiseConv2D dw = make_random_qdw(h, w, c, /*kernel=*/3,
                                            /*stride=*/1, /*pad=*/1,
                                            rng.next_u64(),
                                            /*folded_relu=*/true);
      dw.in = upstream;
      refresh_requant(dw);
      dw.act_min = dw.out.zero_point;
      upstream = dw.out;
      push(std::move(dw));
    }
    const auto& anchor = anchors[static_cast<size_t>(
        rng.next_int(0, static_cast<int>(anchors.size()) - 1))];
    Rng arng(rng.next_u64());
    QAdd add = testing::make_qadd(h, w, c, upstream, anchor.second,
                                  testing::random_act_params(arng));
    const int top = static_cast<int>(m.layers.size());
    rows.push_back({top, anchor.first});
    m.layers.emplace_back(std::move(add));
    upstream = std::get<QAdd>(m.layers.back()).out;
    anchors.emplace_back(static_cast<int>(m.layers.size()), upstream);
    has_add = true;
  }
  m.topology =
      has_add ? "fuzz-[r" + std::to_string(res_blocks) + "]" : "fuzz";

  QDense fc = make_random_qdense(h * w * c, rng.next_int(2, 10),
                                 rng.next_u64());
  fc.in = upstream;
  fc.requant = quantize_multiplier(static_cast<double>(fc.in.scale) *
                                   fc.w_scale / fc.out.scale);
  push(std::move(fc));
  if (has_add) {
    m.layer_inputs = std::move(rows);
    m.validate_dag();
  }
  return m;
}

// Random autoencoder-shaped model: dense-only (no approximable layers),
// 1-3 hidden bottleneck layers of random width, final dense layer
// reconstructing the input (out_dim == pixels), scored head with a
// random threshold. Exercises the reconstruction_score path the
// ae_anomaly workload uses, across random geometries.
QModel make_random_scored_model(uint64_t seed) {
  Rng rng(seed);
  QModel m;
  m.name = "fuzz-scored-" + std::to_string(seed);
  m.topology = "fuzz-ae";
  m.in_h = rng.next_int(3, 6);
  m.in_w = rng.next_int(3, 6);
  m.in_c = rng.next_int(1, 3);
  m.input = {1.0f / 255.0f, -128};
  m.head = TaskHead::kScore;
  m.score_threshold = rng.next_uniform(0.001f, 0.1f);

  const int pixels = m.in_h * m.in_w * m.in_c;
  int dim = pixels;
  QuantParams upstream = m.input;
  const int hidden = rng.next_int(1, 3);
  for (int i = 0; i < hidden; ++i) {
    const int out_dim = rng.next_int(4, 24);
    QDense fc = make_random_qdense(dim, out_dim, rng.next_u64());
    fc.in = upstream;
    fc.requant = quantize_multiplier(static_cast<double>(fc.in.scale) *
                                     fc.w_scale / fc.out.scale);
    fc.act_min = fc.out.zero_point;  // folded relu
    upstream = fc.out;
    dim = out_dim;
    m.layers.emplace_back(std::move(fc));
  }
  QDense dec = make_random_qdense(dim, pixels, rng.next_u64());
  dec.in = upstream;
  dec.requant = quantize_multiplier(static_cast<double>(dec.in.scale) *
                                    dec.w_scale / dec.out.scale);
  m.layers.emplace_back(std::move(dec));
  return m;
}

Dataset make_calib_set(const QModel& m, int images, uint64_t seed) {
  Dataset ds(ImageShape{m.in_h, m.in_w, m.in_c}, 10);
  Rng rng(seed);
  for (int i = 0; i < images; ++i) {
    std::vector<uint8_t> img(static_cast<size_t>(m.in_h) * m.in_w * m.in_c);
    for (auto& p : img) p = static_cast<uint8_t>(rng.next_int(0, 255));
    ds.add(img, rng.next_int(0, 9));
  }
  return ds;
}

// True when every operand skipped by `inner` is also skipped by `outer`.
bool mask_subset(const SkipMask& inner, const SkipMask& outer) {
  if (inner.masks.size() != outer.masks.size()) return false;
  for (size_t l = 0; l < inner.masks.size(); ++l) {
    if (inner.masks[l].size() != outer.masks[l].size()) return false;
    for (size_t i = 0; i < inner.masks[l].size(); ++i) {
      if (inner.masks[l][i] != 0 && outer.masks[l][i] == 0) {
        return false;
      }
    }
  }
  return true;
}

TEST(EngineDiffFuzz, ExactParityMaskedParityAndCostMonotonicity) {
  const uint64_t base = base_seed();
  const double taus[] = {0.0, 0.01, 0.03, 0.08, 0.2};

  for (int iter = 0; iter < kModels; ++iter) {
    const uint64_t model_seed = base + static_cast<uint64_t>(iter) * 1000;
    SCOPED_TRACE("model_seed=" + std::to_string(model_seed) +
                 " (replay: ATAMAN_FUZZ_SEED=" + std::to_string(base) + ")");
    const QModel m = make_random_model(model_seed);
    const int64_t pixels =
        static_cast<int64_t>(m.in_h) * m.in_w * m.in_c;
    const RefEngine oracle(&m);
    EngineConfig exact_cfg;
    exact_cfg.model = &m;

    // --- exact configs: four-way bitwise parity -------------------------
    for (const char* name : {"ref", "cmsis", "unpacked", "xcube"}) {
      const auto engine = EngineRegistry::instance().create(name, exact_cfg);
      for (int i = 0; i < kParityImages; ++i) {
        const auto img = make_random_image(pixels, model_seed + 77 + i);
        EXPECT_EQ(engine->run(img), oracle.run(img))
            << name << " image " << i;
        EXPECT_EQ(engine->classify(img), oracle.classify(img))
            << name << " image " << i;
      }
    }

    // Exact engines' cost models must not depend on the mask field.
    const int approx_count = m.approx_layer_count();
    const Dataset calib = make_calib_set(m, 12, model_seed + 5);
    const auto stats = capture_activation_stats(m, calib, -1);
    const auto significance = compute_model_significance(m, stats);
    SkipMask heavy = make_skip_mask(
        m, significance, ApproxConfig::uniform(approx_count, taus[4]));
    for (const char* name : {"cmsis", "xcube"}) {
      EngineConfig masked_cfg = exact_cfg;
      masked_cfg.mask = &heavy;
      const auto plain = EngineRegistry::instance().create(name, exact_cfg);
      const auto masked = EngineRegistry::instance().create(name, masked_cfg);
      EXPECT_EQ(plain->total_cycles(), masked->total_cycles()) << name;
      EXPECT_EQ(plain->mac_ops(), masked->mac_ops()) << name;
    }

    // --- tau ladder: nesting, masked parity, cost monotonicity ----------
    SkipMask prev_mask;
    int64_t prev_skipped = -1;
    int64_t prev_macs = -1;
    int64_t prev_cycles = -1;
    for (const double tau : taus) {
      SCOPED_TRACE("tau=" + std::to_string(tau));
      const SkipMask mask = make_skip_mask(
          m, significance, ApproxConfig::uniform(approx_count, tau));
      mask.validate(m);

      EngineConfig cfg = exact_cfg;
      cfg.mask = &mask;
      const auto masked_ref = EngineRegistry::instance().create("ref", cfg);
      const auto unpacked =
          EngineRegistry::instance().create("unpacked", cfg);
      for (int i = 0; i < kParityImages; ++i) {
        const auto img = make_random_image(pixels, model_seed + 177 + i);
        EXPECT_EQ(masked_ref->run(img), unpacked->run(img)) << "image " << i;
        EXPECT_EQ(masked_ref->classify(img), unpacked->classify(img))
            << "image " << i;
      }

      // Both mask-aware engines agree on executed work.
      const int64_t macs = unpacked->mac_ops();
      EXPECT_EQ(masked_ref->mac_ops(), macs);
      EXPECT_EQ(macs, m.mac_count() - mask.skipped_macs(m));
      const int64_t skipped = mask.skipped_static_operands();
      const int64_t cycles = unpacked->total_cycles();
      EXPECT_GT(cycles, 0);

      if (prev_skipped >= 0) {
        // Skip sets are nested in tau (the DSE's core assumption),
        // therefore every cost axis moves monotonically.
        EXPECT_TRUE(mask_subset(prev_mask, mask));
        EXPECT_GE(skipped, prev_skipped);
        EXPECT_LE(macs, prev_macs);
        EXPECT_LE(cycles, prev_cycles);
        if (macs < prev_macs) {
          EXPECT_LT(cycles, prev_cycles)
              << "fewer executed MACs must price strictly cheaper";
        }
      }
      prev_mask = mask;
      prev_skipped = skipped;
      prev_macs = macs;
      prev_cycles = cycles;
    }
  }
}

// Batch-parity dimension: for random models, random tau-derived skip
// masks and batch sizes {1, 2, 3, 7, 16}, run_batch logits must be
// bitwise equal to per-image run() on every backend. Batches draw from
// a small image pool, so they contain
// duplicate images, and the non-multiple-of-kBatchLanes sizes exercise
// ragged final lane-blocks.
TEST(EngineDiffFuzz, BatchParityAcrossEnginesAndBatchSizes) {
  const uint64_t base = base_seed();
  const int batch_sizes[] = {1, 2, 3, 7, 16};
  constexpr int kPoolImages = 5;  // < max batch -> guaranteed duplicates

  for (int iter = 0; iter < kModels; ++iter) {
    const uint64_t model_seed = base + static_cast<uint64_t>(iter) * 1000;
    SCOPED_TRACE("model_seed=" + std::to_string(model_seed) +
                 " (replay: ATAMAN_FUZZ_SEED=" + std::to_string(base) + ")");
    const QModel m = make_random_model(model_seed);
    const int64_t pixels = static_cast<int64_t>(m.in_h) * m.in_w * m.in_c;

    std::vector<std::vector<uint8_t>> pool;
    for (int i = 0; i < kPoolImages; ++i)
      pool.push_back(make_random_image(pixels, model_seed + 377 + i));

    const int approx_count = m.approx_layer_count();
    const Dataset calib = make_calib_set(m, 12, model_seed + 5);
    const auto stats = capture_activation_stats(m, calib, -1);
    const auto significance = compute_model_significance(m, stats);
    Rng tau_rng(model_seed + 9);
    const SkipMask mask = make_skip_mask(
        m, significance,
        ApproxConfig::uniform(approx_count,
                              tau_rng.next_uniform(0.0f, 0.15f)));

    struct Cfg {
      const char* engine;
      const SkipMask* mask;
    };
    const Cfg cfgs[] = {
        {"ref", nullptr},      {"cmsis", nullptr}, {"unpacked", nullptr},
        {"xcube", nullptr},    {"ref", &mask},     {"unpacked", &mask},
    };
    for (const Cfg& c : cfgs) {
      EngineConfig ec;
      ec.model = &m;
      ec.mask = c.mask;
      const auto engine = EngineRegistry::instance().create(c.engine, ec);
      SCOPED_TRACE(std::string(c.engine) +
                   (c.mask != nullptr ? " (masked)" : " (exact)"));

      // Empty batches are a hard error on every backend.
      std::vector<std::vector<int8_t>> logits;
      EXPECT_THROW(
          engine->run_batch(std::vector<std::span<const uint8_t>>{}, logits),
          std::exception);

      Rng pick(model_seed + 19);
      for (const int batch : batch_sizes) {
        SCOPED_TRACE("batch=" + std::to_string(batch));
        std::vector<std::span<const uint8_t>> images;
        for (int i = 0; i < batch; ++i)
          images.emplace_back(pool[static_cast<size_t>(
              pick.next_int(0, kPoolImages - 1))]);
        engine->run_batch(images, logits);
        ASSERT_EQ(logits.size(), images.size());
        for (int i = 0; i < batch; ++i) {
          EXPECT_EQ(logits[static_cast<size_t>(i)], engine->run(images[i]))
              << "image " << i;
        }
      }
    }
  }
}

// Per-channel requant dimension: the make_random_* builders produce
// uniform (per-tensor style) w_scales vectors, so the other fuzz tests
// never see channels with *different* requant constants. This test takes
// each random model through two rounds:
//   * a spread round — every conv/depthwise channel gets its own random
//     weight scale (requant rebaked per channel) and all four engines
//     plus the masked-unpacked path and run_batch must stay bit-exact
//     with the reference oracle;
//   * a degenerate round — all-equal per-channel vectors must carry
//     exactly the multiplier the per-tensor scheme would have computed,
//     i.e. the pre-per-channel behavior is reproduced bitwise.
TEST(EngineDiffFuzz, PerChannelRequantParityAcrossEngines) {
  const uint64_t base = base_seed();

  for (int iter = 0; iter < kModels; ++iter) {
    const uint64_t model_seed =
        base + 900 + static_cast<uint64_t>(iter) * 1000;
    SCOPED_TRACE("model_seed=" + std::to_string(model_seed) +
                 " (replay: ATAMAN_FUZZ_SEED=" + std::to_string(base) + ")");

    // --- degenerate round: uniform vectors == per-tensor bitwise --------
    const QModel uniform = make_random_model(model_seed);
    for (const QLayer& layer : uniform.layers) {
      if (const auto* conv = std::get_if<QConv2D>(&layer)) {
        const QuantizedMultiplier want = quantize_multiplier(
            static_cast<double>(conv->in.scale) * conv->w_scales[0] /
            conv->out.scale);
        for (size_t c = 0; c < conv->requant.size(); ++c) {
          EXPECT_EQ(conv->requant[c].mult, want.mult) << "channel " << c;
          EXPECT_EQ(conv->requant[c].shift, want.shift) << "channel " << c;
          EXPECT_EQ(conv->w_scales[c], conv->w_scales[0]) << "channel " << c;
        }
      } else if (const auto* dw = std::get_if<QDepthwiseConv2D>(&layer)) {
        const QuantizedMultiplier want = quantize_multiplier(
            static_cast<double>(dw->in.scale) * dw->w_scales[0] /
            dw->out.scale);
        for (size_t c = 0; c < dw->requant.size(); ++c) {
          EXPECT_EQ(dw->requant[c].mult, want.mult) << "channel " << c;
          EXPECT_EQ(dw->requant[c].shift, want.shift) << "channel " << c;
          EXPECT_EQ(dw->w_scales[c], dw->w_scales[0]) << "channel " << c;
        }
      }
    }

    // --- spread round: distinct per-channel constants, full parity ------
    QModel m = make_random_model(model_seed);
    testing::spread_model_wscales(m, model_seed + 41);
    const int64_t pixels = static_cast<int64_t>(m.in_h) * m.in_w * m.in_c;
    const RefEngine oracle(&m);
    EngineConfig cfg;
    cfg.model = &m;

    for (const char* name : {"ref", "cmsis", "unpacked", "xcube"}) {
      const auto engine = EngineRegistry::instance().create(name, cfg);
      for (int i = 0; i < kParityImages; ++i) {
        const auto img = make_random_image(pixels, model_seed + 877 + i);
        EXPECT_EQ(engine->run(img), oracle.run(img))
            << name << " image " << i;
        EXPECT_EQ(engine->classify(img), oracle.classify(img))
            << name << " image " << i;
      }
    }

    // Masked parity: skipping operands composes with per-channel requant.
    const int approx_count = m.approx_layer_count();
    const Dataset calib = make_calib_set(m, 12, model_seed + 5);
    const auto stats = capture_activation_stats(m, calib, -1);
    const auto significance = compute_model_significance(m, stats);
    const SkipMask mask = make_skip_mask(
        m, significance, ApproxConfig::uniform(approx_count, 0.08));
    EngineConfig masked_cfg = cfg;
    masked_cfg.mask = &mask;
    const auto masked_ref = EngineRegistry::instance().create("ref", masked_cfg);
    const auto unpacked =
        EngineRegistry::instance().create("unpacked", masked_cfg);
    for (int i = 0; i < kParityImages; ++i) {
      const auto img = make_random_image(pixels, model_seed + 977 + i);
      EXPECT_EQ(masked_ref->run(img), unpacked->run(img)) << "image " << i;
    }

    // Batch parity: the lane-blocked paths index requant per channel too.
    std::vector<std::vector<uint8_t>> pool;
    for (int i = 0; i < 5; ++i)
      pool.push_back(make_random_image(pixels, model_seed + 777 + i));
    for (const char* name : {"ref", "cmsis", "unpacked", "xcube"}) {
      const auto engine = EngineRegistry::instance().create(name, cfg);
      Rng pick(model_seed + 23);
      for (const int batch : {3, 7}) {
        std::vector<std::span<const uint8_t>> images;
        for (int i = 0; i < batch; ++i)
          images.emplace_back(
              pool[static_cast<size_t>(pick.next_int(0, 4))]);
        std::vector<std::vector<int8_t>> logits;
        engine->run_batch(images, logits);
        ASSERT_EQ(logits.size(), images.size());
        for (int i = 0; i < batch; ++i) {
          EXPECT_EQ(logits[static_cast<size_t>(i)], engine->run(images[i]))
              << name << " batch " << batch << " image " << i;
        }
      }
    }
  }
}

// Scored-head dimension: random dense-only autoencoder models. All four
// backends must agree bitwise on the reconstruction tensor, exactly on
// the double-valued MSE score (identical int8 tensors, fixed summation
// order), and on the thresholded classification; run_batch must match
// per-image runs; and score() must track reconstruction_score on the
// engine's own outputs.
TEST(EngineDiffFuzz, ScoredDenseModelsParityAcrossEngines) {
  const uint64_t base = base_seed();
  const int batch_sizes[] = {1, 3, 7};

  for (int iter = 0; iter < kModels; ++iter) {
    const uint64_t model_seed =
        base + 500 + static_cast<uint64_t>(iter) * 1000;
    SCOPED_TRACE("model_seed=" + std::to_string(model_seed) +
                 " (replay: ATAMAN_FUZZ_SEED=" + std::to_string(base) + ")");
    const QModel m = make_random_scored_model(model_seed);
    ASSERT_EQ(m.approx_layer_count(), 0);
    const int64_t pixels = static_cast<int64_t>(m.in_h) * m.in_w * m.in_c;
    const RefEngine oracle(&m);
    EngineConfig cfg;
    cfg.model = &m;

    for (const char* name : {"ref", "cmsis", "unpacked", "xcube"}) {
      const auto engine = EngineRegistry::instance().create(name, cfg);
      SCOPED_TRACE(name);
      for (int i = 0; i < kParityImages; ++i) {
        const auto img = make_random_image(pixels, model_seed + 577 + i);
        const auto recon = engine->run(img);
        EXPECT_EQ(recon, oracle.run(img)) << "image " << i;
        const double s = engine->score(img);
        EXPECT_EQ(s, oracle.score(img)) << "image " << i;
        EXPECT_EQ(s, reconstruction_score(m, engine->quantize_input(img),
                                          recon))
            << "image " << i;
        EXPECT_EQ(engine->classify(img), scored_class(m, s))
            << "image " << i;
      }

      std::vector<std::vector<uint8_t>> pool;
      for (int i = 0; i < 4; ++i)
        pool.push_back(make_random_image(pixels, model_seed + 677 + i));
      Rng pick(model_seed + 29);
      for (const int batch : batch_sizes) {
        std::vector<std::span<const uint8_t>> images;
        for (int i = 0; i < batch; ++i)
          images.emplace_back(
              pool[static_cast<size_t>(pick.next_int(0, 3))]);
        std::vector<std::vector<int8_t>> logits;
        engine->run_batch(images, logits);
        ASSERT_EQ(logits.size(), images.size());
        for (int i = 0; i < batch; ++i) {
          EXPECT_EQ(logits[static_cast<size_t>(i)], engine->run(images[i]))
              << "batch " << batch << " image " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ataman
