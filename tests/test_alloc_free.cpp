// Allocation budget of the execution-plan walker, and one const engine
// shared across threads.
//
// This binary replaces the global operator new with a per-thread
// counter. A warm run() may allocate the call's arena and the returned
// logits and nothing else; a run_batch() into a correctly sized
// `logits_out` may allocate only the arena; a steady-state streaming
// frame may allocate only its logits. Every in-tree backend is
// checked on the chain, residual-DAG, depthwise and scored fixtures,
// exact, masked and hybrid. The engines keep no mutable state, so the
// last test runs one shared const engine per backend from four
// std::threads against its serial results (the TSan job runs this file).
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/engine_iface.hpp"
#include "src/data/frame_stream.hpp"
#include "src/nn/skip_mask.hpp"
#include "tests/test_util.hpp"

namespace {

thread_local int64_t t_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++t_allocs;
  if (n == 0) n = 1;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

void release(void* p) { std::free(p); }

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

namespace ataman {
namespace {

struct Case {
  std::string name;
  QModel model;
  SkipMask mask;
  std::vector<uint8_t> hybrid;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  out.push_back({"tiny", testing::make_tiny_qmodel(1501), {}, {}});
  out.push_back({"residual", testing::make_residual_qmodel(1502), {}, {}});
  out.push_back({"depthwise", testing::make_tiny_vww_qmodel(1503), {}, {}});
  out.push_back({"scored", testing::make_tiny_scored_qmodel(1504), {}, {}});
  for (Case& c : out) {
    c.mask = SkipMask::none(c.model);
    Rng rng(1510);
    for (auto& layer : c.mask.masks)
      for (auto& s : layer) s = rng.next_bool(0.3) ? 1 : 0;
    c.hybrid.resize(static_cast<size_t>(c.model.approx_layer_count()));
    for (size_t i = 0; i < c.hybrid.size(); ++i) c.hybrid[i] = i % 2 == 0;
  }
  return out;
}

std::vector<std::vector<uint8_t>> images_for(const QModel& m, int n,
                                             uint64_t seed) {
  std::vector<std::vector<uint8_t>> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(testing::make_random_image(
        static_cast<int64_t>(m.in_h) * m.in_w * m.in_c, seed + i));
  }
  return out;
}

// Every (backend, configuration) of one fixture: exact, masked, and
// masked with a hybrid packed/unpacked selection.
std::vector<std::unique_ptr<InferenceEngine>> engines_for(const Case& c) {
  std::vector<std::unique_ptr<InferenceEngine>> out;
  for (const char* name : {"ref", "cmsis", "unpacked", "xcube"}) {
    for (int variant = 0; variant < 3; ++variant) {
      EngineConfig cfg;
      cfg.model = &c.model;
      if (variant > 0) cfg.mask = &c.mask;
      if (variant == 2) cfg.unpack_selection = &c.hybrid;
      out.push_back(EngineRegistry::instance().create(name, cfg));
    }
  }
  return out;
}

TEST(AllocFree, WarmRunAllocatesArenaAndLogitsOnly) {
  for (const Case& c : cases()) {
    const auto images = images_for(c.model, 4, 1520);
    const std::vector<std::span<const uint8_t>> spans(images.begin(),
                                                      images.end());
    for (const auto& engine : engines_for(c)) {
      std::vector<std::vector<int8_t>> logits;
      engine->run(images[0]);  // warm
      engine->run_batch(spans, logits);

      int64_t before = t_allocs;
      const std::vector<int8_t> out = engine->run(images[1]);
      EXPECT_LE(t_allocs - before, 2)
          << c.name << " " << engine->design_name() << " run()";

      before = t_allocs;
      engine->run_batch(spans, logits);
      EXPECT_LE(t_allocs - before, 1)
          << c.name << " " << engine->design_name() << " run_batch()";
      EXPECT_EQ(logits[1], out);
    }
  }
}

// A steady-state streaming frame runs in the session's ring: it may
// allocate only the returned logits.
TEST(AllocFree, SteadyStateStreamingFrameAllocatesLogitsOnly) {
  for (const Case& c : cases()) {
    FrameStreamSpec spec;
    spec.shape = {c.model.in_h, c.model.in_w, c.model.in_c};
    spec.frames = 8;  // past the ring's warmup at a constant stride
    spec.stride_cols = 2;
    const FrameStream stream(spec);
    std::vector<std::vector<uint8_t>> columns;
    for (int i = 0; i < spec.frames; ++i)
      columns.push_back(stream.new_columns(i));
    for (const auto& engine : engines_for(c)) {
      StreamState state;
      for (int i = 0; i + 1 < spec.frames; ++i)
        engine->run_incremental(state, columns[static_cast<size_t>(i)]);
      const int64_t before = t_allocs;
      const std::vector<int8_t> out =
          engine->run_incremental(state, columns.back());
      EXPECT_LE(t_allocs - before, 1)
          << c.name << " " << engine->design_name() << " run_incremental()";
      EXPECT_EQ(out, engine->run(stream.frame(spec.frames - 1)));
    }
  }
}

TEST(AllocFree, OneConstEngineServesFourThreads) {
  for (const Case& c : cases()) {
    const auto images = images_for(c.model, 12, 1530);
    for (const auto& engine : engines_for(c)) {
      std::vector<std::vector<int8_t>> serial;
      for (const auto& img : images) serial.push_back(engine->run(img));

      const InferenceEngine& shared = *engine;
      constexpr int kThreads = 4;
      std::vector<std::vector<std::vector<int8_t>>> got(kThreads);
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          auto& mine = got[static_cast<size_t>(t)];
          for (size_t i = 0; i < images.size(); ++i) {
            // Alternate entry points so run() and run_batch() overlap.
            if ((i + static_cast<size_t>(t)) % 2 == 0) {
              mine.push_back(shared.run(images[i]));
            } else {
              const std::span<const uint8_t> img(images[i]);
              std::vector<std::vector<int8_t>> one;
              shared.run_batch({&img, 1}, one);
              mine.push_back(one[0]);
            }
          }
        });
      }
      for (auto& th : threads) th.join();
      for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(got[static_cast<size_t>(t)], serial)
            << c.name << " " << engine->design_name() << " thread " << t;
      }
    }
  }
}

}  // namespace
}  // namespace ataman
