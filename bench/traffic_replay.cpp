// Mixed-traffic replay harness: a seeded multi-model trace against the
// batched async runtime (src/serve), one InferenceServer per workload.
//
// Workload: four zoo models served side by side — micronet and dscnn
// (classifier heads) plus vww and ae_anomaly (the binary-person and
// scored-autoencoder workloads). A deterministic trace (bench/
// replay_common.hpp) assigns each request a workload class, a test
// image, and a Poisson-style arrival offset; the replay paces
// submissions to those offsets, so queue latency reflects arrival
// bursts, not just service time. Requests rotate through all four
// registry backends (exact configurations).
//
// Reported per workload class: request count, throughput, and
// nearest-rank p50/p95/p99 of queue and run latency. Every result is
// cross-checked bitwise against serial execution on the same backend
// (exit 2 on mismatch) — the serve determinism contract, extended here
// to the scored head: ae_anomaly's reconstruction score and thresholded
// class must match the serial engine exactly.
//
// The harness also absorbs the DS-CNN Pareto item: after the replay it
// runs the dscnn DSE, emits Fig. 2-style scatter/Pareto rows
// (bench_results/fig2_pareto_dscnn.csv) and a Table II-style
// packed / unpacked / hybrid comparison for dscnn.
//
//   ./build/bench/traffic_replay [--quick] [--strict] [--requests N]
//                                [--seed S]
//
// --strict turns the replay verdict (all classes served, all results
// bitwise identical to serial, nothing dropped) into exit 1 for CI.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/replay_common.hpp"
#include "src/serve/server.hpp"
#include "src/sig/skip_plan.hpp"
#include "src/unpack/layer_selection.hpp"

namespace {

using namespace ataman;
using namespace ataman::bench;
using serve::InferenceServer;
using serve::InferFuture;
using serve::InferRequest;
using serve::InferResult;
using serve::ServeOptions;
using serve::ServeStats;

struct Args {
  bool quick = false;
  bool strict = false;
  int requests = 0;       // 0 -> per-scale default
  uint64_t seed = 20240u; // trace seed
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      a.quick = true;
    } else if (arg == "--strict") {
      a.strict = true;
    } else if (arg == "--requests" && i + 1 < argc) {
      a.requests = std::stoi(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      a.seed = static_cast<uint64_t>(std::stoull(argv[++i]));
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      std::exit(64);
    }
  }
  return a;
}

struct Workload {
  std::string name;
  QModel model;
  SynthCifar data;
};

// Table II-style dscnn comparison + Fig. 2 rows, reusing one DSE sweep.
void dscnn_pareto_and_table(const Workload& w, Scale scale) {
  PipelineOptions opts;
  opts.dse = dse_options_for(w.name, scale);
  AtamanPipeline pipe(&w.model, &w.data.train, &w.data.test, opts);
  std::printf("\n[dscnn] DSE for the Pareto/Table II section...\n");
  const DseOutcome outcome = pipe.explore();
  std::printf("[dscnn] swept %zu configs: %lld image evals, %lld "
              "prefix-cache hits, %d early exits\n",
              outcome.results.size(),
              static_cast<long long>(outcome.images_evaluated),
              static_cast<long long>(outcome.cache_hits),
              outcome.early_exits);

  // Fig. 2 rows (the old fig2_pareto_dscnn item).
  CsvWriter scatter(results_dir() + "/fig2_pareto_dscnn.csv",
                    {"mac_reduction", "latency_reduction", "accuracy",
                     "is_pareto", "config"});
  std::vector<bool> on_front(outcome.results.size(), false);
  for (const int idx : outcome.pareto)
    on_front[static_cast<size_t>(idx)] = true;
  for (size_t i = 0; i < outcome.results.size(); ++i) {
    const DseResult& r = outcome.results[i];
    scatter.row({CsvWriter::num(r.conv_mac_reduction),
                 CsvWriter::num(r.latency_reduction),
                 CsvWriter::num(r.accuracy), on_front[i] ? "1" : "0",
                 r.config.to_string()});
  }
  std::printf("[dscnn] exact accuracy %.4f; Pareto front (%zu points):\n",
              outcome.exact_accuracy, outcome.pareto.size());
  for (const int idx : outcome.pareto) {
    const DseResult& r = outcome.results[static_cast<size_t>(idx)];
    std::printf("    mac-red %-8.3f acc %-8.4f %s\n", r.conv_mac_reduction,
                r.accuracy, r.config.to_string().c_str());
  }

  // Table II-style packed / unpacked / hybrid rows at the 5% budget.
  const int eval_limit = scale == Scale::kQuick ? 200 : 400;
  const int idx = pipe.select(outcome, 0.05);
  check(idx >= 0, "no dscnn design satisfies the 5% budget");
  const ApproxConfig& config =
      outcome.results[static_cast<size_t>(idx)].config;

  const DeployReport packed = pipe.deploy_engine("cmsis", eval_limit);
  const DeployReport unpacked =
      pipe.deploy(config, "ours-unpacked", eval_limit);
  const SkipMask mask = pipe.mask_for(config);
  const HybridPlan plan = select_layers_to_unpack(
      w.model, mask, pipe.options().board.flash_bytes);
  const std::vector<uint8_t> selection = plan.unpack_selection();
  EngineConfig cfg;
  cfg.model = &w.model;
  cfg.mask = &mask;
  cfg.unpack_selection = &selection;
  cfg.design_name = "ataman-hybrid";
  const auto hybrid_engine = EngineRegistry::instance().create("unpacked", cfg);
  const DeployReport hybrid =
      hybrid_engine->deploy(w.data.test, pipe.options().board, eval_limit);

  ConsoleTable table({"design", "acc", "latency ms", "flash KB", "MACs",
                      "energy mJ"});
  CsvWriter csv(results_dir() + "/table2_dscnn.csv",
                {"design", "accuracy", "latency_ms", "flash_kb", "mac_ops",
                 "energy_mj"});
  for (const auto* r : {&packed, &unpacked, &hybrid}) {
    const std::string label = r == &packed     ? "packed (cmsis)"
                              : r == &unpacked ? "unpacked @5% loss"
                                               : "hybrid @5% loss";
    table.row({label, fmt(r->top1_accuracy, 4), fmt(r->latency_ms, 2),
               fmt(static_cast<double>(r->flash_bytes) / 1024.0, 0),
               fmt(static_cast<double>(r->mac_ops) / 1e6, 2) + "M",
               fmt(r->energy_mj, 3)});
    csv.row({label, CsvWriter::num(r->top1_accuracy),
             CsvWriter::num(r->latency_ms),
             CsvWriter::num(static_cast<double>(r->flash_bytes) / 1024.0),
             std::to_string(r->mac_ops), CsvWriter::num(r->energy_mj)});
  }
  std::printf("%s", table.render("Table II-style comparison (dscnn)").c_str());
  std::printf("[csv] %s, %s/fig2_pareto_dscnn.csv\n", csv.path().c_str(),
              results_dir().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Scale scale = args.quick ? Scale::kQuick : Scale::kDefault;
  const int hw_threads =
      static_cast<int>(std::thread::hardware_concurrency());
  std::printf("==============================================================\n");
  std::printf("Traffic replay: seeded mixed multi-model trace vs src/serve\n");
  std::printf("  hardware threads=%d  seed=%llu  flags:%s%s\n", hw_threads,
              static_cast<unsigned long long>(args.seed),
              args.quick ? " --quick" : "", args.strict ? " --strict" : "");
  std::printf("==============================================================\n");

  // The four serving classes. Building a model trains it on first run;
  // later runs hit the on-disk qmodel cache.
  std::vector<std::unique_ptr<Workload>> workloads;
  for (const ZooSpec& spec :
       {micronet_spec(), dscnn_spec(), vww_spec(), ae_anomaly_spec()}) {
    auto w = std::make_unique<Workload>();
    w->name = spec.arch.name;
    w->model = get_or_build_qmodel(spec);
    w->data = make_synth_cifar(spec.data);
    workloads.push_back(std::move(w));
  }
  const int num_classes = static_cast<int>(workloads.size());
  int min_images = workloads[0]->data.test.size();
  for (const auto& w : workloads)
    min_images = std::min(min_images, w->data.test.size());

  const int total = args.requests > 0 ? args.requests
                    : args.quick      ? 96
                                      : 320;
  const double mean_gap_ms = args.quick ? 1.0 : 1.5;
  const std::vector<TraceEvent> trace =
      make_trace(args.seed, total, num_classes, min_images, mean_gap_ms);
  const char* kEngines[] = {"unpacked", "cmsis", "ref", "xcube"};
  std::printf("[trace] %d events over ~%.0f ms, %d classes, engine "
              "rotation across %zu backends\n",
              total, trace.empty() ? 0.0 : trace.back().arrival_ms,
              num_classes, std::size(kEngines));

  // Serial oracles: one engine per (class, backend), run in trace order.
  // Their outputs are the bitwise ground truth for the replay.
  std::vector<std::vector<std::unique_ptr<InferenceEngine>>> oracles(
      static_cast<size_t>(num_classes));
  for (int c = 0; c < num_classes; ++c) {
    for (const char* name : kEngines) {
      EngineConfig cfg;
      cfg.model = &workloads[static_cast<size_t>(c)]->model;
      oracles[static_cast<size_t>(c)].push_back(
          EngineRegistry::instance().create(name, cfg));
    }
  }
  std::vector<std::vector<int8_t>> expected(trace.size());
  Stopwatch serial_sw;
  for (size_t i = 0; i < trace.size(); ++i) {
    const TraceEvent& e = trace[i];
    const auto& w = *workloads[static_cast<size_t>(e.model_class)];
    expected[i] = oracles[static_cast<size_t>(e.model_class)]
                         [i % std::size(kEngines)]
                             ->run(w.data.test.image(e.image_index));
  }
  const double serial_ms = serial_sw.millis();
  std::printf("[serial] %d requests in %.1f ms (%.0f req/s, warm "
              "single-thread baseline)\n",
              total, serial_ms, 1e3 * total / serial_ms);

  // One server per workload class (a server binds one model).
  const int workers = args.quick ? 2 : 4;
  ServeOptions serve_options;
  serve_options.workers = workers;
  serve_options.max_batch = 8;
  std::vector<std::unique_ptr<InferenceServer>> servers;
  for (const auto& w : workloads)
    servers.push_back(
        std::make_unique<InferenceServer>(&w->model, serve_options));

  // Replay: pace each submission to its arrival offset.
  std::vector<InferFuture> futures(trace.size());
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < trace.size(); ++i) {
    const TraceEvent& e = trace[i];
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::milli>(e.arrival_ms)));
    const auto& w = *workloads[static_cast<size_t>(e.model_class)];
    InferRequest r;
    r.engine = kEngines[i % std::size(kEngines)];
    const auto img = w.data.test.image(e.image_index);
    r.image.assign(img.begin(), img.end());
    futures[i] = servers[static_cast<size_t>(e.model_class)]->submit(
        std::move(r));
  }
  for (auto& s : servers) s->drain();
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();

  // Cross-check + per-class latency bucketing.
  ClassBuckets queue_buckets, run_buckets;
  std::vector<int> class_counts(static_cast<size_t>(num_classes), 0);
  int mismatches = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    const TraceEvent& e = trace[i];
    const auto& w = *workloads[static_cast<size_t>(e.model_class)];
    const InferResult r = futures[i].get();
    if (r.logits != expected[i]) ++mismatches;
    if (w.model.head == TaskHead::kScore) {
      // Scored-head determinism: score and thresholded class must match
      // what the serial engine computes from the same logits.
      const auto& oracle = oracles[static_cast<size_t>(e.model_class)]
                                  [i % std::size(kEngines)];
      const double serial_score = reconstruction_score(
          w.model, oracle->quantize_input(w.data.test.image(e.image_index)),
          expected[i]);
      if (r.score != serial_score ||
          r.top1 != scored_class(w.model, serial_score))
        ++mismatches;
    }
    queue_buckets.add(w.name, r.queue_ms);
    run_buckets.add(w.name, r.run_ms);
    ++class_counts[static_cast<size_t>(e.model_class)];
  }
  if (mismatches != 0) {
    std::fprintf(stderr,
                 "FATAL: replay diverged from serial on %d requests — "
                 "determinism contract broken\n",
                 mismatches);
    return 2;
  }

  // Per-class report.
  ConsoleTable table({"class", "reqs", "req/s", "queue p50/p95/p99 ms",
                      "run p50/p95/p99 ms"});
  CsvWriter csv(results_dir() + "/traffic_replay.csv",
                {"class", "requests", "req_per_s", "queue_p50", "queue_p95",
                 "queue_p99", "run_p50", "run_p95", "run_p99", "workers",
                 "hw_threads"});
  bool all_classes_served = true;
  for (int c = 0; c < num_classes; ++c) {
    const auto& w = *workloads[static_cast<size_t>(c)];
    const LatencySummary q = summarize_latency(queue_buckets.samples(w.name));
    const LatencySummary r = summarize_latency(run_buckets.samples(w.name));
    const int count = class_counts[static_cast<size_t>(c)];
    if (count == 0) all_classes_served = false;
    const double rps = 1e3 * count / wall_ms;
    table.row({w.name, std::to_string(count), fmt(rps, 1),
               fmt(q.p50, 2) + " / " + fmt(q.p95, 2) + " / " + fmt(q.p99, 2),
               fmt(r.p50, 2) + " / " + fmt(r.p95, 2) + " / " +
                   fmt(r.p99, 2)});
    csv.row({w.name, std::to_string(count), CsvWriter::num(rps),
             CsvWriter::num(q.p50), CsvWriter::num(q.p95),
             CsvWriter::num(q.p99), CsvWriter::num(r.p50),
             CsvWriter::num(r.p95), CsvWriter::num(r.p99),
             std::to_string(workers), std::to_string(hw_threads)});
  }
  std::printf("%s", table.render("replay latency by workload class").c_str());
  std::printf("[replay] %d requests in %.1f ms (%.0f req/s aggregate, %d "
              "workers per class)\n",
              total, wall_ms, 1e3 * total / wall_ms, workers);
  std::printf("[csv] %s\n", csv.path().c_str());

  // Drop-free check: every submitted request completed.
  bool nothing_dropped = true;
  for (const auto& s : servers) {
    const ServeStats stats = s->stats();
    if (stats.completed != stats.submitted) nothing_dropped = false;
  }

  // DS-CNN Pareto + Table II-style section.
  dscnn_pareto_and_table(*workloads[1], scale);

  const bool pass = all_classes_served && nothing_dropped;
  std::printf("\n[verdict] %s: %s, %s, all %d results bitwise identical "
              "to serial\n",
              pass ? "PASS" : "FAIL",
              all_classes_served ? "every class served"
                                 : "a class received no traffic",
              nothing_dropped ? "nothing dropped" : "requests dropped",
              total);
  return pass || !args.strict ? 0 : 1;
}
