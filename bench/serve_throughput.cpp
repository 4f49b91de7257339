// Serving-throughput harness: serial single-request loops vs the batched
// async runtime (src/serve) across worker counts.
//
// Workload: synthetic-CIFAR traffic against a zoo model — a fixed
// interleaved mix of exact and approximate configurations across the
// four registry backends, exactly what a deployment fleet doing
// mixed-precision A/B serving would see. Three execution modes:
//
//   serial-cold  one registry engine built per request, run, discarded —
//                serving without any runtime layer (every deploy_engine
//                call site works like this today)
//   serial-warm  one engine per configuration built upfront, requests
//                run in arrival order on the caller thread — serving
//                with caching but neither batching nor concurrency
//   serve@N      InferenceServer with N workers (micro-batching + the
//                per-worker engine pool)
//
// Every mode's logits are cross-checked bitwise against the serial-cold
// baseline (exit 2 on any mismatch) — the determinism contract,
// measured, not assumed. Serve workers execute each coalesced batch
// through run_batch, so the serve rows measure batched kernels + engine
// caching + concurrency; the CSV labels each row with the host's
// hardware-thread count and whether batched kernels were engaged, so a
// 1-core SKIP row can no longer be mistaken for a multicore result.
// Throughput target: serve@4 >= 3x serial-warm — warm is the honest
// baseline now that engine construction is cached everywhere. Those two
// modes run five alternating times and the verdict compares their
// median passes, since one pass of either swings by tens of percent on a
// shared host. The verdict needs >= 4 hardware threads: inference is pure CPU work, so a
// 1-core container cannot exhibit thread scaling and the harness says so
// instead of faking it (--strict turns a missed, *evaluable* target into
// exit 1 for CI use).
//
//   ./build/bench/serve_throughput [--quick] [--strict]
//                                  [--model micronet|lenet|alexnet]
//                                  [--requests N]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/common/metrics.hpp"
#include "src/serve/server.hpp"
#include "src/sig/skip_plan.hpp"

namespace {

using namespace ataman;
using serve::InferenceServer;
using serve::InferFuture;
using serve::InferRequest;
using serve::ServeOptions;
using serve::ServeStats;

struct Args {
  bool quick = false;
  bool strict = false;
  std::string model = "micronet";
  int requests = 0;  // 0 -> per-scale default
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      a.quick = true;
    } else if (arg == "--strict") {
      a.strict = true;
    } else if (arg == "--model" && i + 1 < argc) {
      a.model = argv[++i];
    } else if (arg == "--requests" && i + 1 < argc) {
      a.requests = std::stoi(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      std::exit(64);
    }
  }
  return a;
}

struct ModeResult {
  std::string mode;
  double wall_ms = 0.0;
  double req_per_s = 0.0;
  int64_t batches = 0;
  int64_t max_batch = 0;
  bool batched_kernels = false;  // run_batch-amortized execution engaged
};

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const int hw_threads =
      static_cast<int>(std::thread::hardware_concurrency());
  std::printf("==============================================================\n");
  std::printf("Serving throughput: serial loop vs batched async runtime\n");
  std::printf("  model=%s  hardware threads=%d  flags:%s%s\n",
              args.model.c_str(), hw_threads, args.quick ? " --quick" : "",
              args.strict ? " --strict" : "");
  std::printf("==============================================================\n");

  const ZooSpec spec = args.model == "lenet"     ? lenet_spec()
                       : args.model == "alexnet" ? alexnet_spec()
                                                 : micronet_spec();
  const QModel model = get_or_build_qmodel(spec);
  const SynthCifar data = make_synth_cifar(spec.data);

  // Significance-derived masks for the approximate configurations.
  AtamanPipeline pipeline(&model, &data.train, &data.test, {});
  pipeline.analyze();
  const int convs = model.conv_layer_count();
  const SkipMask mask_lo = pipeline.mask_for(ApproxConfig::uniform(convs, 0.02));
  const SkipMask mask_hi = pipeline.mask_for(ApproxConfig::uniform(convs, 0.08));

  // The traffic mix: exact + approximate across all four backends.
  struct Key {
    const char* engine;
    const SkipMask* mask;
  };
  const Key keys[] = {
      {"unpacked", &mask_lo}, {"cmsis", nullptr}, {"unpacked", &mask_hi},
      {"xcube", nullptr},     {"ref", &mask_lo},  {"unpacked", nullptr},
  };
  const int total = args.requests > 0 ? args.requests
                    : args.quick      ? 96
                                      : 240;
  std::vector<InferRequest> requests;
  requests.reserve(static_cast<size_t>(total));
  for (int i = 0; i < total; ++i) {
    const Key& key = keys[static_cast<size_t>(i) % std::size(keys)];
    InferRequest r;
    r.engine = key.engine;
    r.mask = key.mask;
    const auto img = data.test.image(i % data.test.size());
    r.image.assign(img.begin(), img.end());
    requests.push_back(std::move(r));
  }
  std::printf("[workload] %d requests, %zu configurations, %d test images\n",
              total, std::size(keys), data.test.size());

  std::vector<ModeResult> results;

  // --- serial-cold: engine per request -----------------------------------
  std::vector<std::vector<int8_t>> expected(requests.size());
  {
    Stopwatch sw;
    for (size_t i = 0; i < requests.size(); ++i) {
      EngineConfig cfg;
      cfg.model = &model;
      cfg.mask = requests[i].mask;
      const auto engine =
          EngineRegistry::instance().create(requests[i].engine, cfg);
      expected[i] = engine->run(requests[i].image);
    }
    const double ms = sw.millis();
    results.push_back({"serial-cold", ms, 1e3 * total / ms, 0, 0});
  }

  // --- serial-warm: cached engine per configuration ----------------------
  std::vector<std::unique_ptr<InferenceEngine>> engines;
  for (const Key& key : keys) {
    EngineConfig cfg;
    cfg.model = &model;
    cfg.mask = key.mask;
    engines.push_back(EngineRegistry::instance().create(key.engine, cfg));
  }
  // Wall ms of one serial-warm pass; exits 2 on any divergence.
  const auto serial_warm = [&] {
    Stopwatch sw;
    int mismatches = 0;
    for (size_t i = 0; i < requests.size(); ++i) {
      const auto logits = engines[i % std::size(keys)]->run(requests[i].image);
      if (logits != expected[i]) ++mismatches;
    }
    const double ms = sw.millis();
    if (mismatches != 0) {
      std::fprintf(stderr, "FATAL: serial-warm diverged on %d requests\n",
                   mismatches);
      std::exit(2);
    }
    return ms;
  };

  // --- batched async runtime ---------------------------------------------
  // One fresh server pass with `workers` workers; exits 2 on any
  // divergence.
  const auto serve_pass = [&](int workers) {
    ServeOptions options;
    options.workers = workers;
    options.max_batch = 8;
    InferenceServer server(&model, options);
    Stopwatch sw;
    std::vector<InferFuture> futures;
    futures.reserve(requests.size());
    for (const InferRequest& r : requests) futures.push_back(server.submit(r));
    server.drain();
    const double ms = sw.millis();

    int mismatches = 0;
    for (size_t i = 0; i < futures.size(); ++i) {
      if (futures[i].get().logits != expected[i]) ++mismatches;
    }
    if (mismatches != 0) {
      std::fprintf(stderr,
                   "FATAL: serve@%d diverged from serial on %d requests — "
                   "determinism contract broken\n",
                   workers, mismatches);
      std::exit(2);
    }
    const ServeStats stats = server.stats();
    std::printf(
        "[serve@%d] %lld batches (max fill %lld), %lld coalesced, "
        "%lld prototypes, %lld clones — all %d results bitwise == serial\n",
        workers, static_cast<long long>(stats.batches),
        static_cast<long long>(stats.max_batch_seen),
        static_cast<long long>(stats.coalesced),
        static_cast<long long>(stats.pool.prototypes_built),
        static_cast<long long>(stats.pool.engines_cloned), total);
    return ModeResult{"serve@" + std::to_string(workers), ms, 1e3 * total / ms,
                      stats.batches, stats.max_batch_seen,
                      /*batched_kernels=*/true};
  };

  // The gated pair, serial-warm vs serve@4, runs kGateRepeats alternating
  // times and reports each mode's median pass: one pass of either mode
  // swings by tens of percent on a shared host. Every other mode runs
  // once.
  constexpr int kGateRepeats = 5;
  std::vector<double> warm_ms;
  std::vector<ModeResult> serve4;
  for (int rep = 0; rep < kGateRepeats; ++rep) {
    warm_ms.push_back(serial_warm());
    serve4.push_back(serve_pass(4));
    std::printf("[repeat %d] serial-warm %.1f ms, serve@4 %.1f ms (%.2fx)\n",
                rep + 1, warm_ms.back(), serve4.back().wall_ms,
                warm_ms.back() / serve4.back().wall_ms);
  }
  const double warm_median = percentile(warm_ms, 50.0);
  results.push_back({"serial-warm", warm_median, 1e3 * total / warm_median, 0,
                     0});
  std::sort(serve4.begin(), serve4.end(),
            [](const ModeResult& a, const ModeResult& b) {
              return a.wall_ms < b.wall_ms;
            });
  const std::vector<int> worker_counts =
      args.quick ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  double serve4_req_per_s = -1.0;
  for (const int workers : worker_counts) {
    if (workers == 4) {
      results.push_back(serve4[kGateRepeats / 2]);  // the median pass
      serve4_req_per_s = results.back().req_per_s;
    } else {
      results.push_back(serve_pass(workers));
    }
  }

  // --- report -------------------------------------------------------------
  const double cold_rps = results[0].req_per_s;
  const double warm_rps = results[1].req_per_s;
  ConsoleTable table({"mode", "wall ms", "req/s", "vs cold", "vs warm",
                      "batched"});
  CsvWriter csv(bench::results_dir() + "/serve_throughput.csv",
                {"mode", "wall_ms", "req_per_s", "speedup_vs_cold",
                 "speedup_vs_warm", "batches", "max_batch", "hw_threads",
                 "batched_kernels"});
  for (const ModeResult& r : results) {
    table.row({r.mode, bench::fmt(r.wall_ms, 1), bench::fmt(r.req_per_s, 1),
               bench::fmt(r.req_per_s / cold_rps, 2),
               bench::fmt(r.req_per_s / warm_rps, 2),
               r.batched_kernels ? "yes" : "no"});
    csv.row({r.mode, CsvWriter::num(r.wall_ms), CsvWriter::num(r.req_per_s),
             CsvWriter::num(r.req_per_s / cold_rps),
             CsvWriter::num(r.req_per_s / warm_rps),
             std::to_string(r.batches), std::to_string(r.max_batch),
             std::to_string(hw_threads),
             std::string(r.batched_kernels ? "1" : "0")});
  }
  std::printf("%s", table.render("throughput by execution mode").c_str());
  std::printf("[csv] %s\n", csv.path().c_str());

  // --- verdict ------------------------------------------------------------
  if (serve4_req_per_s < 0) {
    std::printf("[verdict] serve@4 not in the worker set — no verdict\n");
    return 0;
  }
  const double speedup = serve4_req_per_s / warm_rps;
  if (hw_threads < 4) {
    std::printf(
        "[verdict] SKIP: %.2fx at 4 workers vs serial-warm; the >=3x "
        "target needs >=4 hardware threads (this host has %d — CPU-bound "
        "inference cannot thread-scale here)\n",
        speedup, hw_threads);
    return 0;
  }
  const bool pass = speedup >= 3.0;
  std::printf(
      "[verdict] %s: median serve@4 is %.2fx median serial-warm over %d "
      "alternating repeats (target >=3x)\n",
      pass ? "PASS" : "FAIL", speedup, kGateRepeats);
  return pass || !args.strict ? 0 : 1;
}
