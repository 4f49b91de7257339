#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <thread>

#include "alloc_counter.hpp"
#include "loadgen.hpp"
#include "src/common/metrics.hpp"
#include "src/common/parallel.hpp"
#include "src/common/stopwatch.hpp"
#include "src/core/ataman.hpp"
#include "src/data/frame_stream.hpp"
#include "src/dse/evaluator.hpp"
#include "src/nn/engine.hpp"
#include "src/serve/server.hpp"

namespace perfbench {
namespace {

using namespace ataman;
using Clock = std::chrono::steady_clock;
using serve::InferFuture;
using serve::InferenceServer;
using serve::InferResult;

// --- sizes ---------------------------------------------------------------

// Serving SLO: a ladder step passes when its p90 (failed operations count
// as infinitely late) stays under this limit and so does the median of
// its last quarter, which grows with any backlog that builds up.
constexpr double kSloMs = 10.0;
// How long the load generator sleeps between polls of the futures it
// waits on. A completion is stamped on the generator's clock at the first
// poll that sees it, so a latency reads late by at most about one poll
// interval plus the host's timer slack.
constexpr auto kPoll = std::chrono::microseconds(20);
// Micro-batch cap of both servers.
constexpr int kMaxBatch = 8;

struct LoopSizes {
  double fixed_rate = 0;  // operations/s of the fixed-rate phase
  double fixed_s = 0;     // its length
  RateLadder ladder;      // SLO search
  double probe_s = 0;     // shortest ladder step
  double probe_ops = 3300;  // fewest operations in a ladder step
  int setup_reps = 9;
};

LoopSizes loop_sizes(const Options& o, double fixed_rate, RateLadder ladder) {
  LoopSizes s;
  s.fixed_rate = fixed_rate;
  s.ladder = ladder;
  if (o.quick) {
    s.fixed_s = 0.5;
    s.probe_s = 0.1;
    s.probe_ops = 200;
    s.ladder.steps = 8;
    s.setup_reps = 1;
  } else {
    s.fixed_s = o.trace ? std::max(1.0, 0.15 * o.seconds) : 0.55 * o.seconds;
    s.probe_s = 0.35 * o.seconds / 12.0;
  }
  return s;
}

// --- small helpers -------------------------------------------------------

uint64_t mix_seed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

int64_t ns_of(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// Builds the workload's program state `reps` times, keeps the last one
// and reports the median build time (the benchmark's set-up time). The
// previous state is torn down, untimed, before the next build, so only
// one state is ever alive and peak RSS holds one of them.
template <class Make>
auto timed_setup(int reps, double& median_s, Make make) {
  std::vector<double> times;
  decltype(make()) kept;
  for (int r = 0; r < reps; ++r) {
    kept = {};
    Stopwatch watch;
    kept = make();
    times.push_back(watch.seconds());
  }
  median_s = median(times);
  return kept;
}

std::unique_ptr<InferenceEngine> make_engine(const QModel& model,
                                             const std::string& name,
                                             const SkipMask* mask) {
  EngineConfig cfg;
  cfg.model = &model;
  cfg.mask = mask;
  return EngineRegistry::instance().create(name, cfg);
}

// Modeled MCU speedup of the unpacked design under `mask` over the packed
// exact baseline.
double mcu_speedup(const QModel& model, const SkipMask* mask) {
  const auto packed = make_engine(model, "cmsis", nullptr);
  const auto design = make_engine(model, "unpacked", mask);
  return static_cast<double>(packed->total_cycles()) /
         static_cast<double>(design->total_cycles());
}

// --- open loop -----------------------------------------------------------

// One sent operation of an open loop, timed on the load generator's clock.
struct Sent {
  InferFuture future;  // invalid when the server refused it
  Clock::time_point due, began, returned, done;
};

// Drives an open loop from the calling thread — the only load-generator
// thread — sending op i at `due_s[i]` seconds after the start whatever
// the server is doing. Until the next op is due, and after the last one
// until every op has resolved, it polls the outstanding futures and
// stamps each completion. Reports how long the drain ran past the last
// due time.
std::vector<Sent> drive(const std::vector<double>& due_s,
                        const std::function<InferFuture(size_t)>& send,
                        double& drain_ms) {
  std::vector<Sent> ops(due_s.size());
  std::vector<size_t> pending;
  const auto poll = [&] {
    std::erase_if(pending, [&](size_t i) {
      if (!ops[i].future.ready()) return false;
      ops[i].done = Clock::now();
      return true;
    });
  };
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  for (size_t i = 0; i < due_s.size(); ++i) {
    Sent& op = ops[i];
    op.due = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(due_s[i]));
    for (;;) {
      poll();
      const Clock::time_point now = Clock::now();
      if (now >= op.due) break;
      std::this_thread::sleep_until(std::min<Clock::time_point>(
          op.due, now + kPoll));
    }
    op.began = Clock::now();
    try {
      op.future = send(i);
    } catch (const std::exception&) {
      // Refused: stays an invalid future and counts as failed.
    }
    op.returned = Clock::now();
    if (op.future.valid()) pending.push_back(i);
  }
  for (poll(); !pending.empty(); poll()) std::this_thread::sleep_for(kPoll);
  drain_ms = ms_between(ops.empty() ? start : ops.back().due, Clock::now());
  return ops;
}

// What one open-loop phase measured, in send order.
struct Phase {
  std::vector<double> latency_ms;  // due -> done; failures are infinite
  std::vector<double> queue_ms, run_ms, batch, submit_us, lag_ms;
  int64_t attempted = 0;
  int64_t failed = 0;  // refused, failed, or not bitwise equal to the oracle
  double drain_ms = 0.0;
};

// Resolves every op, checks it with `correct(i, result)` and times it
// from its due time; records one span tree per op while tracing.
Phase collect(const std::vector<Sent>& ops, double drain_ms,
              const std::function<bool(size_t, const InferResult&)>& correct,
              Tracer& tracer, const char* root_name, const char* run_name) {
  Phase p;
  p.drain_ms = drain_ms;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Sent& op = ops[i];
    ++p.attempted;
    p.submit_us.push_back(1e3 * ms_between(op.began, op.returned));
    p.lag_ms.push_back(ms_between(op.due, op.began));
    InferResult res;
    bool ok = op.future.valid();
    if (ok) {
      try {
        res = op.future.get();
        ok = correct(i, res);
      } catch (const std::exception&) {
        ok = false;
      }
    }
    if (!ok) {
      ++p.failed;
      p.latency_ms.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    p.latency_ms.push_back(ms_between(op.due, op.done));
    p.queue_ms.push_back(res.queue_ms);
    p.run_ms.push_back(res.run_ms);
    p.batch.push_back(res.batch_size);
    if (tracer.enabled()) {
      // The request id is its root span's id, unique across the run. The
      // queue and run spans come from the server's own timings: the
      // queue starts at enqueue, a few microseconds before submit
      // returns, and both are clamped to the completion the generator
      // saw. The root's self time is what remains: result hand-off and
      // polling.
      const uint64_t req = tracer.spans().size() + 1;
      const int64_t due = ns_of(op.due);
      const int64_t ret = ns_of(op.returned);
      const int64_t done = ns_of(op.done);
      const int64_t q_end =
          std::min(done, ret + static_cast<int64_t>(res.queue_ms * 1e6));
      const int64_t r_end =
          std::min(done, q_end + static_cast<int64_t>(res.run_ms * 1e6));
      const uint64_t root = tracer.record(root_name, due, done, 0, req);
      tracer.record("loadgen.lag", due, ns_of(op.began), root, req);
      tracer.record("serve.submit", ns_of(op.began), ret, root, req);
      tracer.record("serve.queue", ret, q_end, root, req);
      tracer.record(run_name, q_end, r_end, root, req);
    }
  }
  return p;
}

// Highest rate on the ladder that meets the SLO. A failing step is run a
// second time before it counts, so one burst of host noise cannot end
// the search early. `probe(rate, seconds, salt)` runs one step.
double search_slo_rate(
    const LoopSizes& sizes,
    const std::function<Phase(double, double, uint64_t)>& probe,
    Report& r) {
  const int step = ladder_search(sizes.ladder.steps, [&](int k) {
    const double rate = sizes.ladder.rate(k);
    const double seconds = std::max(sizes.probe_s, sizes.probe_ops / rate);
    for (uint64_t attempt = 0; attempt < 2; ++attempt) {
      const Phase p = probe(rate, seconds, 1000 * attempt + k);
      r.attempted += p.attempted;
      r.failed += p.failed;
      const double p90 = percentile(p.latency_ms, 90.0);
      const std::vector<double> last_quarter(
          p.latency_ms.end() - static_cast<std::ptrdiff_t>(
                                   p.latency_ms.size() / 4),
          p.latency_ms.end());
      const double backlog_p50 = percentile(last_quarter, 50.0);
      const bool pass = p90 <= kSloMs && backlog_p50 <= kSloMs;
      std::printf("[ladder] %8.1f /s  %6lld ops  p90 %8.3f ms  last-quarter "
                  "p50 %8.3f ms  drain %8.3f ms  %s\n",
                  rate, static_cast<long long>(p.attempted), p90, backlog_p50,
                  p.drain_ms, pass ? "pass" : "fail");
      if (pass) return true;
    }
    return false;
  });
  if (step >= 0) return sizes.ladder.rate(step);
  // Not even the lowest step met the SLO. That is a slow run, not a wrong
  // one: report the rate one step below the ladder.
  return sizes.ladder.rate(0) / sizes.ladder.ratio;
}

// End-to-end block of the open-loop workloads. Peak RSS is read right
// after the fixed-rate phase: the ladder overloads the server on
// purpose, and its backlog would make the number a property of the
// search.
void open_loop_metrics(Report& r, const std::string& prefix, double setup_s,
                       const Phase& fixed, double p50, double rss_mb,
                       double slo_rate, double lossless, double lossy) {
  const double p99 = percentile(fixed.latency_ms, 99.0);
  r.set("setup_s", setup_s, "s");
  r.set("peak_rss_mb", rss_mb, "MB");
  r.set("p50_ms", p50, "ms");
  r.set("mcu_speedup_lossless", lossless, "x");
  r.set("mcu_speedup_lossy", lossy, "x");
  r.alias(prefix + "_p50_ms", p50, "ms");
  r.alias(prefix + "_p99_ms", p99, "ms");
  r.alias(prefix + "_slo_rate_per_s", slo_rate, "1/s");
  r.alias(prefix + "_samples", static_cast<double>(fixed.latency_ms.size()),
          "count");
}

// Serve-layer per-layer metrics of one traced phase.
void serve_layer_metrics(Report& r, const Phase& p,
                         const serve::ServeStats& stats) {
  r.set("serve.queue_ms_p50", percentile(p.queue_ms, 50.0), "ms");
  r.set("serve.queue_ms_p99", percentile(p.queue_ms, 99.0), "ms");
  r.set("serve.run_ms_p50", percentile(p.run_ms, 50.0), "ms");
  r.set("serve.batch_mean", mean(p.batch), "count");
  r.set("serve.coalesced_ratio",
        stats.completed > 0 ? static_cast<double>(stats.coalesced) /
                                  static_cast<double>(stats.completed)
                            : 0.0,
        "ratio");
  r.set("serve.submit_us", percentile(p.submit_us, 50.0), "us");
  r.set("serve.pool.prototypes",
        static_cast<double>(stats.pool.prototypes_built), "count");
  r.set("serve.pool.clones", static_cast<double>(stats.pool.engines_cloned),
        "count");
  r.set("loadgen.lag_p99_ms", percentile(p.lag_ms, 99.0), "ms");
}

// --- engine probes -------------------------------------------------------

// Times one engine's public entry points on a warm instance: single-image
// run(), 4-image run_batch(), and the heap allocations of one run().
void probe_engine(Report& r, Tracer& tracer, const std::string& label,
                  const InferenceEngine& engine,
                  const std::vector<std::span<const uint8_t>>& images,
                  int runs) {
  const size_t n = images.size();
  for (size_t i = 0; i < 8; ++i) engine.run(images[i % n]);
  std::vector<double> run_us;
  const std::string span_name = label + ".run";
  for (int i = 0; i < runs; ++i) {
    const int64_t t0 = now_ns();
    engine.run(images[static_cast<size_t>(i) % n]);
    const int64_t t1 = now_ns();
    run_us.push_back(1e-3 * static_cast<double>(t1 - t0));
    tracer.record(span_name, t0, t1);
  }
  std::vector<double> batch_us;
  std::vector<std::vector<int8_t>> logits;
  for (int i = 0; i < std::max(4, runs / 4); ++i) {
    std::vector<std::span<const uint8_t>> four;
    for (size_t j = 0; j < 4; ++j) four.push_back(images[(4 * i + j) % n]);
    const int64_t t0 = now_ns();
    engine.run_batch(four, logits);
    batch_us.push_back(1e-3 * static_cast<double>(now_ns() - t0) / 4.0);
  }
  set_alloc_counting(true);
  const int64_t a0 = thread_allocs();
  engine.run(images[0]);
  const int64_t allocs = thread_allocs() - a0;
  set_alloc_counting(false);

  r.set(label + ".run_us_p50", percentile(run_us, 50.0), "us");
  r.set(label + ".batch4_us_per_img", percentile(batch_us, 50.0), "us");
  r.set(label + ".allocs_per_run", static_cast<double>(allocs), "count");
  if (label != "ref")  // the reference oracle models no MCU cost
    r.set(label + ".cycles", static_cast<double>(engine.total_cycles()),
          "cycles");
  r.set(label + ".macs", static_cast<double>(engine.mac_ops()), "count");
}

// --- serve-mix -----------------------------------------------------------

struct MixConfig {
  const char* engine;
  int mask;  // 0 exact, 1 light, 2 heavy
};
constexpr MixConfig kMix[] = {{"unpacked", 0}, {"unpacked", 1},
                              {"unpacked", 2}, {"cmsis", 0},
                              {"xcube", 0},    {"ref", 1}};
constexpr int kMixCount = static_cast<int>(std::size(kMix));
constexpr double kLightTau = 0.02;
constexpr double kHeavyTau = 0.08;

struct ServeState {
  QModel model;
  std::unique_ptr<AtamanPipeline> pipeline;
  SkipMask light, heavy;
  std::unique_ptr<InferenceServer> server;

  const SkipMask* mask(int id) const {
    return id == 1 ? &light : id == 2 ? &heavy : nullptr;
  }
};

// Model load (cache hit), significance analysis, the two masks, and a
// server with every config's engines built by one warm-up request each.
std::unique_ptr<ServeState> build_serve(const std::string& cache_dir,
                                        const SynthCifar& data,
                                        std::span<const uint8_t> warm_image) {
  auto s = std::make_unique<ServeState>();
  s->model = get_or_build_qmodel(micronet_spec(), cache_dir);
  s->pipeline = std::make_unique<AtamanPipeline>(&s->model, &data.train,
                                                 &data.test);
  s->pipeline->analyze();
  const int approx = s->model.approx_layer_count();
  s->light = s->pipeline->mask_for(ApproxConfig::uniform(approx, kLightTau));
  s->heavy = s->pipeline->mask_for(ApproxConfig::uniform(approx, kHeavyTau));
  serve::ServeOptions so;
  so.workers = kServeWorkers;
  so.max_batch = kMaxBatch;
  s->server = std::make_unique<InferenceServer>(&s->model, so);
  for (const MixConfig& c : kMix) {
    serve::InferRequest req;
    req.engine = c.engine;
    req.mask = s->mask(c.mask);
    req.image.assign(warm_image.begin(), warm_image.end());
    s->server->submit(std::move(req)).get();
  }
  return s;
}

}  // namespace

void prepare_models(const std::string& cache_dir) {
  for (const ZooSpec& spec : {micronet_spec(), dscnn_spec(), lenet_spec()}) {
    Stopwatch watch;
    const QModel m = get_or_build_qmodel(spec, cache_dir);
    std::printf("[prepare] %s ready in %.1f s\n", m.name.c_str(),
                watch.seconds());
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void trace_metrics(Report& r, const Tracer& tracer) {
  const auto self = tracer.self_times();
  r.set("trace.spans", static_cast<double>(tracer.spans().size()), "count");
  for (const char* name :
       {"loadgen.lag", "serve.submit", "serve.queue", "serve.run",
        "serve.session.run", "dse.explore", "dse.select"}) {
    const auto it = self.find(name);
    const double us = it == self.end() || it->second.count == 0
                          ? 0.0
                          : 1e3 * it->second.self_ms /
                                static_cast<double>(it->second.count);
    r.set(std::string("self_us.") + name, us, "us");
  }
}

Report run_serve_mix(const Options& o, Tracer& tracer) {
  Report r;
  const LoopSizes sizes = loop_sizes(o, 400.0, {500.0, 1.04, 90});
  const SynthCifar data = make_synth_cifar(micronet_spec().data);

  // Inputs: a seeded pool of test images and a seeded config per request.
  std::vector<int> pool(static_cast<size_t>(data.test.size()));
  for (size_t i = 0; i < pool.size(); ++i) pool[i] = static_cast<int>(i);
  Rng shuffle(mix_seed(o.seed, 1));
  for (size_t i = pool.size(); i > 1; --i)
    std::swap(pool[i - 1], pool[shuffle.next_below(i)]);
  pool.resize(std::min<size_t>(pool.size(), 256));
  const auto image = [&](size_t p) { return data.test.image(pool[p]); };

  double setup_s = 0.0;
  auto state = timed_setup(sizes.setup_reps, setup_s, [&] {
    return build_serve(o.cache_dir, data, image(0));
  });
  InferenceServer& server = *state->server;

  // Oracle, before any timing: the reference engine run serially per
  // input under each mask (parallel across inputs only).
  std::vector<std::vector<std::vector<int8_t>>> oracle(3);
  const RefEngine ref(&state->model);
  for (int m = 0; m < 3; ++m) {
    oracle[m].resize(pool.size());
    parallel_for(0, static_cast<int64_t>(pool.size()), [&](int64_t p) {
      oracle[m][p] = ref.run(image(p), state->mask(m));
    });
  }

  const auto phase = [&](double rate, double seconds, uint64_t salt,
                         bool traced) {
    const std::vector<double> due =
        poisson_arrivals(rate, seconds, mix_seed(o.seed, 100 + salt));
    Rng keys(mix_seed(o.seed, 200 + salt));
    std::vector<std::pair<int, size_t>> key(due.size());
    for (auto& k : key)
      k = {static_cast<int>(keys.next_below(kMixCount)),
           keys.next_below(pool.size())};
    double drain_ms = 0.0;
    const auto ops = drive(due, [&](size_t i) {
      serve::InferRequest req;
      req.engine = kMix[key[i].first].engine;
      req.mask = state->mask(kMix[key[i].first].mask);
      const auto img = image(key[i].second);
      req.image.assign(img.begin(), img.end());
      return server.submit(std::move(req));
    }, drain_ms);
    tracer.enable(traced);
    Phase p = collect(
        ops, drain_ms,
        [&](size_t i, const InferResult& res) {
          return res.logits ==
                 oracle[kMix[key[i].first].mask][key[i].second];
        },
        tracer, "request", "serve.run");
    tracer.enable(false);
    return p;
  };

  if (!o.trace) {
    const Phase fixed = phase(sizes.fixed_rate, sizes.fixed_s, 0, false);
    const double rss_mb = peak_rss_mb();
    r.attempted += fixed.attempted;
    r.failed += fixed.failed;
    const double slo_rate = search_slo_rate(
        sizes,
        [&](double rate, double seconds, uint64_t salt) {
          return phase(rate, seconds, 1 + salt, false);
        },
        r);
    open_loop_metrics(r, "req", setup_s, fixed, median(fixed.latency_ms),
                      rss_mb, slo_rate,
                      mcu_speedup(state->model, nullptr),
                      mcu_speedup(state->model, &state->heavy));
    r.alias("slo_rps", slo_rate, "1/s");
    return r;
  }

  // Per-layer pass: the fixed-rate phase untraced, then traced (their p50
  // difference is the tracing overhead), then the engines one by one on
  // the same model.
  const Phase plain = phase(sizes.fixed_rate, sizes.fixed_s, 0, false);
  const serve::ServeStats before = server.stats();
  const Phase traced = phase(sizes.fixed_rate, sizes.fixed_s, 1, true);
  serve::ServeStats stats = server.stats();
  stats.completed -= before.completed;
  stats.coalesced -= before.coalesced;
  for (const Phase* p : {&plain, &traced}) {
    r.attempted += p->attempted;
    r.failed += p->failed;
  }
  serve_layer_metrics(r, traced, stats);
  r.set("trace.overhead_ms_p50",
        median(traced.latency_ms) - median(plain.latency_ms), "ms");

  tracer.enable(true);
  std::vector<std::span<const uint8_t>> images;
  for (size_t p = 0; p < pool.size(); ++p) images.push_back(image(p));
  const auto quant = make_engine(state->model, "cmsis", nullptr);
  std::vector<double> quant_us;
  for (int i = 0; i < 400; ++i) {
    const int64_t t0 = now_ns();
    quant->quantize_input(images[static_cast<size_t>(i) % images.size()]);
    const int64_t t1 = now_ns();
    quant_us.push_back(1e-3 * static_cast<double>(t1 - t0));
    tracer.record("core.quantize_input", t0, t1);
  }
  r.set("core.quantize_input_us", percentile(quant_us, 50.0), "us");
  const struct {
    const char* label;
    const char* engine;
    const SkipMask* mask;
  } engines[] = {{"ref", "ref", nullptr},
                 {"cmsis", "cmsis", nullptr},
                 {"unpacked", "unpacked", nullptr},
                 {"unpacked-approx", "unpacked", &state->heavy},
                 {"xcube", "xcube", nullptr}};
  for (const auto& e : engines)
    probe_engine(r, tracer, e.label,
                 *make_engine(state->model, e.engine, e.mask), images,
                 o.quick ? 40 : 300);
  tracer.enable(false);
  return r;
}

// --- kws-stream ----------------------------------------------------------

namespace {

constexpr int kSessions = 8;            // even: ref exact, odd: unpacked+mask
constexpr int kStride = 2;              // FrameStream columns per frame
// Frames per session stream; bounds the ladder steps.
constexpr int kStreamFrames = 1000;
constexpr double kKwsTau = 0.02;

struct KwsState {
  QModel model;
  std::unique_ptr<AtamanPipeline> pipeline;
  SkipMask mask;
  std::unique_ptr<InferenceServer> server;

  static const char* engine(int session) {
    return session % 2 == 0 ? "ref" : "unpacked";
  }
  const SkipMask* mask_of(int session) const {
    return session % 2 == 0 ? nullptr : &mask;
  }
};

std::unique_ptr<KwsState> build_kws(const std::string& cache_dir,
                                    const SynthCifar& data,
                                    const FrameStream& warm) {
  auto s = std::make_unique<KwsState>();
  s->model = get_or_build_qmodel(dscnn_spec(), cache_dir);
  s->pipeline = std::make_unique<AtamanPipeline>(&s->model, &data.train,
                                                 &data.test);
  s->pipeline->analyze();
  s->mask = s->pipeline->mask_for(
      ApproxConfig::uniform(s->model.approx_layer_count(), kKwsTau));
  serve::ServeOptions so;
  so.workers = kServeWorkers;
  so.max_batch = kMaxBatch;
  s->server = std::make_unique<InferenceServer>(&s->model, so);
  for (int k = 0; k < 2; ++k) {
    auto session = s->server->open_session({s->engine(k), s->mask_of(k)});
    s->server->push_frame(session, warm.new_columns(0)).get();
  }
  return s;
}

}  // namespace

Report run_kws_stream(const Options& o, Tracer& tracer) {
  Report r;
  const LoopSizes sizes = loop_sizes(o, 400.0, {250.0, 1.04, 90});
  const SynthCifar data = make_synth_cifar(dscnn_spec().data);

  // One seeded signal per session, long enough for the longest phase.
  const int fixed_frames = static_cast<int>(
      std::ceil(sizes.fixed_rate * sizes.fixed_s / kSessions));
  const int frames =
      o.trace ? fixed_frames
              : std::max(fixed_frames, o.quick ? 100 : kStreamFrames);
  std::vector<FrameStream> streams;
  for (int s = 0; s < kSessions; ++s) {
    FrameStreamSpec fs;
    fs.frames = frames;
    fs.stride_cols = kStride;
    fs.seed = mix_seed(o.seed, 300 + static_cast<uint64_t>(s));
    streams.emplace_back(fs);
  }

  double setup_s = 0.0;
  auto state = timed_setup(sizes.setup_reps, setup_s, [&] {
    return build_kws(o.cache_dir, data, streams[0]);
  });
  InferenceServer& server = *state->server;

  // Oracle, before any timing: every frame's full window through the
  // reference engine under its session's mask.
  const RefEngine ref(&state->model);
  std::vector<std::vector<std::vector<int8_t>>> oracle(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    oracle[s].resize(static_cast<size_t>(frames));
    parallel_for(0, frames, [&](int64_t f) {
      oracle[s][f] = ref.run(streams[s].frame(static_cast<int>(f)),
                             state->mask_of(s));
    });
  }

  // Fresh sessions replay every stream from frame 0 on a fixed cadence:
  // op j is frame j / kSessions of session j % kSessions, due at j / rate.
  std::vector<serve::StreamSessionStats> session_stats;
  const auto cadence = [&](double rate, int per_session, bool traced) {
    std::vector<std::shared_ptr<serve::StreamSession>> sessions;
    for (int s = 0; s < kSessions; ++s)
      sessions.push_back(
          server.open_session({state->engine(s), state->mask_of(s)}));
    std::vector<double> due(static_cast<size_t>(per_session) * kSessions);
    for (size_t j = 0; j < due.size(); ++j)
      due[j] = static_cast<double>(j) / rate;
    double drain_ms = 0.0;
    const auto ops = drive(due, [&](size_t j) {
      const size_t s = j % kSessions;
      return server.push_frame(sessions[s],
                               streams[s].new_columns(
                                   static_cast<int>(j / kSessions)));
    }, drain_ms);
    tracer.enable(traced);
    Phase p = collect(
        ops, drain_ms,
        [&](size_t j, const InferResult& res) {
          return res.logits == oracle[j % kSessions][j / kSessions];
        },
        tracer, "frame", "serve.session.run");
    tracer.enable(false);
    session_stats.clear();
    for (const auto& s : sessions) session_stats.push_back(s->stats());
    return p;
  };

  if (!o.trace) {
    const Phase fixed = cadence(sizes.fixed_rate, fixed_frames, false);
    const double rss_mb = peak_rss_mb();
    r.attempted += fixed.attempted;
    r.failed += fixed.failed;
    const double slo_rate = search_slo_rate(
        sizes,
        [&](double rate, double seconds, uint64_t) {
          const int per_session = std::min(
              frames, static_cast<int>(std::ceil(rate * seconds / kSessions)));
          return cadence(rate, per_session, false);
        },
        r);
    // The two session paths form two latency modes; a pooled median
    // would sit in the gap between them and jump with either one, so the
    // p50 is the mean of the two paths' medians.
    std::vector<double> by_path[2];
    for (size_t j = 0; j < fixed.latency_ms.size(); ++j)
      by_path[j % 2].push_back(fixed.latency_ms[j]);
    const double p50 = 0.5 * (median(by_path[0]) + median(by_path[1]));
    r.alias("frame_p50_ms.ref", median(by_path[0]), "ms");
    r.alias("frame_p50_ms.unpacked", median(by_path[1]), "ms");
    open_loop_metrics(r, "frame", setup_s, fixed, p50, rss_mb, slo_rate,
                      mcu_speedup(state->model, nullptr),
                      mcu_speedup(state->model, &state->mask));
    return r;
  }

  const Phase traced = cadence(sizes.fixed_rate, fixed_frames, true);
  r.attempted += traced.attempted;
  r.failed += traced.failed;
  double reuse = 0.0;
  int64_t fallback = 0;
  for (int s = 0; s < kSessions; ++s) {
    if (s % 2 == 0) reuse += session_stats[s].reuse_ratio() / (kSessions / 2);
    fallback += session_stats[s].fallback_frames;
  }
  r.set("serve.session.reuse_ratio", reuse, "ratio");
  r.set("serve.session.fallback_frames", static_cast<double>(fallback),
        "count");

  // The two per-frame paths, called directly on one stream each.
  tracer.enable(true);
  const auto unpacked = make_engine(state->model, "unpacked", &state->mask);
  StreamState stream_state;
  std::vector<double> incremental_us, fallback_us;
  int64_t incremental_allocs = 0;
  const int probe_frames = std::min(fixed_frames, o.quick ? 40 : 300);
  for (int f = 0; f < probe_frames; ++f) {
    const auto columns = streams[0].new_columns(f);
    const int64_t count0 = thread_allocs();
    set_alloc_counting(f == probe_frames - 1);  // one steady-state frame
    const int64_t t0 = now_ns();
    ref.run_incremental(stream_state, columns);
    const int64_t t1 = now_ns();
    set_alloc_counting(false);
    incremental_allocs = thread_allocs() - count0;
    incremental_us.push_back(1e-3 * static_cast<double>(t1 - t0));
    tracer.record("nn.run_incremental", t0, t1);
    const auto window = streams[1].frame(f);
    const int64_t t2 = now_ns();
    unpacked->run(window);
    const int64_t t3 = now_ns();
    fallback_us.push_back(1e-3 * static_cast<double>(t3 - t2));
    tracer.record("unpack.fallback_frame", t2, t3);
  }
  tracer.enable(false);
  r.set("nn.run_incremental_us_p50", percentile(incremental_us, 50.0), "us");
  r.set("nn.incremental_allocs", static_cast<double>(incremental_allocs),
        "count");
  r.set("unpack.fallback_frame_us_p50", percentile(fallback_us, 50.0), "us");
  return r;
}

// --- dse-lenet -----------------------------------------------------------

namespace {

struct DseState {
  QModel model;
  std::unique_ptr<AtamanPipeline> pipeline;
  double analyze_s = 0.0;
};

// The sweep: 4 tau levels per layer plus exact (125 LeNet configs) and
// 32 images per config, on kDseThreads. One sweep takes about 6 s on one
// thread of the 4-vCPU VM this was tuned on; a run does as many as fit
// its seconds.
constexpr int kDseLevels = 4;
constexpr int kDseImages = 32;
constexpr double kSweepSeconds = 6.0;

// What must repeat exactly across sweeps of one configuration.
struct SweepCounts {
  int64_t images_evaluated = 0;
  int64_t cache_hits = 0;
  int early_exits = 0;
  int selected_0 = -1;
  int selected_5 = -1;
  bool operator==(const SweepCounts&) const = default;
};

}  // namespace

Report run_dse_lenet(const Options& o, Tracer& tracer) {
  Report r;
  const ZooSpec spec = lenet_spec();
  const SynthCifar data = make_synth_cifar(spec.data);
  PipelineOptions po;
  po.dse.mode = DseMode::kPerLayerGrid;
  po.dse.per_layer_levels = o.quick ? 2 : kDseLevels;
  po.dse.eval_images = o.quick ? 16 : kDseImages;

  double setup_s = 0.0;
  auto state = timed_setup(o.quick ? 1 : 5, setup_s, [&] {
    auto s = std::make_unique<DseState>();
    s->model = get_or_build_qmodel(spec, o.cache_dir);
    s->pipeline = std::make_unique<AtamanPipeline>(&s->model, &data.train,
                                                   &data.test, po);
    Stopwatch watch;
    s->pipeline->analyze();
    s->analyze_s = watch.seconds();
    return s;
  });
  AtamanPipeline& pipe = *state->pipeline;
  set_num_threads(kDseThreads);

  // The closed loop: each sweep starts when the previous one returns.
  const int sweeps =
      o.trace || o.quick
          ? 1
          : std::max(1, static_cast<int>(
                            std::lround(o.seconds / kSweepSeconds)));
  tracer.enable(o.trace);
  std::vector<double> sweep_s;
  SweepCounts first;
  DseOutcome outcome;
  for (int k = 0; k < sweeps; ++k) {
    const int64_t t0 = now_ns();
    outcome = pipe.explore();
    const int64_t t1 = now_ns();
    const SweepCounts c{outcome.images_evaluated, outcome.cache_hits,
                        outcome.early_exits, pipe.select(outcome, 0.0),
                        pipe.select(outcome, 0.05)};
    const int64_t t2 = now_ns();
    const uint64_t req = tracer.spans().size() + 1;
    const uint64_t root = tracer.record("dse.sweep", t0, t2, 0, req);
    tracer.record("dse.explore", t0, t1, root, req);
    tracer.record("dse.select", t1, t2, root, req);
    sweep_s.push_back(1e-9 * static_cast<double>(t2 - t0));
    ++r.attempted;
    if (k == 0) first = c;
    if (!(c == first) || c.selected_0 < 0 || c.selected_5 < 0) ++r.failed;
  }
  tracer.enable(false);
  std::printf("[dse] %zu configs, %lld image evals, %lld cache hits, %d "
              "early exits, selected #%d (0%%) #%d (5%%)\n",
              outcome.results.size(),
              static_cast<long long>(first.images_evaluated),
              static_cast<long long>(first.cache_hits), first.early_exits,
              first.selected_0, first.selected_5);

  // The selected designs must give identical logits on the unpacked
  // engine and the reference engine under the same mask.
  const RefEngine ref(&state->model);
  Rng pick(mix_seed(o.seed, 400));
  for (int sel : {first.selected_0, first.selected_5}) {
    if (sel < 0) continue;
    const SkipMask mask = pipe.mask_for(outcome.results[sel].config);
    const auto unpacked = make_engine(state->model, "unpacked", &mask);
    for (int i = 0; i < (o.quick ? 8 : 64); ++i) {
      const auto img = data.test.image(
          static_cast<int>(pick.next_below(data.test.size())));
      ++r.attempted;
      if (unpacked->run(img) != ref.run(img, &mask)) ++r.failed;
    }
  }

  const auto cycles_at = [&](int sel) {
    return sel < 0 ? outcome.baseline_cycles : outcome.results[sel].cycles;
  };
  const double base = static_cast<double>(outcome.baseline_cycles);
  const double speedup_0 =
      base / static_cast<double>(cycles_at(first.selected_0));
  const double speedup_5 =
      base / static_cast<double>(cycles_at(first.selected_5));

  if (!o.trace) {
    r.set("setup_s", setup_s, "s");
    r.set("p50_ms", 1e3 * median(sweep_s), "ms");
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    r.set("mcu_speedup_lossless", speedup_0, "x");
    r.set("mcu_speedup_lossy", speedup_5, "x");
    r.alias("dse_s", median(sweep_s), "s");
    r.alias("dse_slowest_s", percentile(sweep_s, 100.0), "s");
    r.alias("mcu_speedup_0pct", speedup_0, "x");
    r.alias("mcu_speedup_5pct", speedup_5, "x");
    return r;
  }

  r.set("sig.analyze_s", state->analyze_s, "s");
  r.set("dse.images_evaluated", static_cast<double>(first.images_evaluated),
        "count");
  r.set("dse.budget_ratio",
        static_cast<double>(first.images_evaluated) /
            (static_cast<double>(outcome.results.size()) *
             po.dse.eval_images),
        "ratio");
  r.set("dse.cache_hits", static_cast<double>(first.cache_hits), "count");
  r.set("dse.early_exits", first.early_exits, "count");
  r.set("dse.baseline_cycles", base, "cycles");
  r.set("dse.selected_cycles_0pct",
        static_cast<double>(cycles_at(first.selected_0)), "cycles");
  r.set("dse.selected_cycles_5pct",
        static_cast<double>(cycles_at(first.selected_5)), "cycles");

  // The sweep's building blocks, called one by one.
  tracer.enable(true);
  const auto configs =
      generate_configs(state->model.approx_layer_count(), po.dse);
  const ConfigEvaluator evaluator(&state->model, &pipe.significance(),
                                  &data.test, po.dse.eval_images);
  std::vector<double> mask_us, static_us;
  for (const ApproxConfig& c : configs) {
    const int64_t t0 = now_ns();
    const SkipMask mask = pipe.mask_for(c);
    const int64_t t1 = now_ns();
    evaluator.evaluate_static(c);
    const int64_t t2 = now_ns();
    mask_us.push_back(1e-3 * static_cast<double>(t1 - t0));
    static_us.push_back(1e-3 * static_cast<double>(t2 - t1));
    tracer.record("sig.mask_build", t0, t1);
    tracer.record("dse.evaluate_static", t1, t2);
  }
  // run_from at the last approximable layer: where the prefix cache
  // resumes a config that shares all earlier layers.
  const int last = state->model.approx_layer_count() - 1;
  const int boundary = state->model.approx_layer_index(last);
  std::vector<double> run_from_us;
  for (int i = 0; i < (o.quick ? 16 : 200); ++i) {
    std::vector<int8_t> act;
    ref.run(data.test.image(i % data.test.size()), nullptr,
            [&](int ordinal, const QLayer&, std::span<const int8_t> in) {
              if (ordinal == last) act.assign(in.begin(), in.end());
            });
    const int64_t t0 = now_ns();
    ref.run_from(boundary, act);
    const int64_t t1 = now_ns();
    run_from_us.push_back(1e-3 * static_cast<double>(t1 - t0));
    tracer.record("nn.run_from", t0, t1);
  }
  tracer.enable(false);
  r.set("sig.mask_build_us", percentile(mask_us, 50.0), "us");
  r.set("dse.evaluate_static_us", percentile(static_us, 50.0), "us");
  r.set("nn.run_from_us", percentile(run_from_us, 50.0), "us");
  return r;
}

}  // namespace perfbench
