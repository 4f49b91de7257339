// The benchmark's three workloads (see README.md for why each exists and
// what it predicts):
//
//   serve-mix   open loop, Poisson arrivals into one InferenceServer on
//               micronet, six (engine, mask) configs over all four
//               backends, then a rate ladder
//   kws-stream  open loop, dscnn streaming sessions pushed on a fixed
//               frame cadence, half on ref (run_incremental) and half on
//               unpacked+mask (full-window fallback), then a rate ladder
//   dse-lenet   closed loop, the per-layer-grid DSE sweep on LeNet on one
//               thread, with design selection at 0% and 5% Top-1 loss
//
// Every workload reports the same end-to-end metric names, each with the
// workload's own meaning (README.md has the table). With tracing on, a
// workload runs a shorter traced pass and reports per-layer metrics
// instead.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  std::string cache_dir;  // zoo model cache, filled by prepare_models
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;  // failed, refused or mismatched operations
  std::map<std::string, Metric> metrics;
  // The same numbers under the workload-specific names people use for
  // them (req_p50_ms, dse_s, ...), printed for humans.
  std::vector<std::pair<std::string, Metric>> named;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void alias(const std::string& name, double value, const std::string& unit) {
    named.push_back({name, {value, unit}});
  }
};

// Serve workers of both serving workloads; with the load generator that
// is four threads, the host's core count.
inline constexpr int kServeWorkers = 3;

// OpenMP threads of the dse-lenet sweeps (its set-up runs on the default
// count). On the 4-vCPU VM this was tuned on, the host's share of cores
// for the guest moved the 4-thread sweep time by up to 40% within five
// minutes, while the single-threaded serving latencies moved by a few
// percent: one thread keeps dse_s a measure of the code.
inline constexpr int kDseThreads = 1;

// Trains (first call) or loads every zoo model the workloads use.
void prepare_models(const std::string& cache_dir);

Report run_serve_mix(const Options& options, Tracer& tracer);
Report run_kws_stream(const Options& options, Tracer& tracer);
Report run_dse_lenet(const Options& options, Tracer& tracer);

// Span count and mean self time per span name of the traced run.
void trace_metrics(Report& report, const Tracer& tracer);

// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

}  // namespace perfbench
