// perfbench — the repo benchmark's runner.
//
//   perfbench --workload serve-mix|kws-stream|dse-lenet|all --seed N
//             --seconds S --trace 0|1 --cache-dir DIR --out-dir DIR
//             [--quick] [--git-sha SHA]
//   perfbench --prepare --cache-dir DIR
//
// Untraced, it runs the named workload and reports the end-to-end
// metrics. Traced, it runs every workload's shorter traced pass, reports
// the per-layer metrics and writes the spans as Chrome trace-event JSON.
// The last line of stdout is always the JSON result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// run.py builds this program and is the documented entry point.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "src/common/parallel.hpp"
#include "src/common/serialize.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Report;

struct Args {
  Options options;
  bool prepare = false;
  std::string out_dir = ".";
  std::string git_sha = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(64);
}

Args parse(int argc, char** argv) {
  Args a;
  Options& o = a.options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    const auto numeric = [&]() -> double {
      const std::string v = value();
      char* end = nullptr;
      const double d = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0') usage("bad number for " + arg);
      return d;
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      const double seed = numeric();
      if (seed < 0 || seed != std::floor(seed)) usage("bad --seed");
      o.seed = static_cast<uint64_t>(seed);
    } else if (arg == "--seconds") {
      o.seconds = numeric();
    } else if (arg == "--trace") {
      o.trace = value() != "0";
    } else if (arg == "--quick") {
      o.quick = true;
    } else if (arg == "--cache-dir") {
      o.cache_dir = value();

    } else if (arg == "--prepare") {
      a.prepare = true;
    } else if (arg == "--out-dir") {
      a.out_dir = value();
    } else if (arg == "--git-sha") {
      a.git_sha = value();
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (o.cache_dir.empty()) usage("--cache-dir is required");
  if (a.prepare) return a;
  if (o.quick && o.workload.empty()) o.workload = "all";
  if (o.workload != "serve-mix" && o.workload != "kws-stream" &&
      o.workload != "dse-lenet" && o.workload != "all")
    usage("unknown workload '" + o.workload + "'");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string quote(const std::string& s) { return "\"" + s + "\""; }

// Finite JSON number with every digit the double carries.
std::string number(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e300 : -1e300;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Host and build facts recorded with every result, so a 1-thread capture
// can never pass for a 4-thread one.
std::string metadata(const Args& a) {
  const Options& o = a.options;
  std::string m = "{";
  m += "\"nproc\":" + std::to_string(affinity_cpus());
  m += ",\"hardware_concurrency\":" +
       std::to_string(std::thread::hardware_concurrency());
  m += ",\"omp_threads\":" + std::to_string(ataman::num_threads());
  m += ",\"dse_sweep_omp_threads\":" + std::to_string(perfbench::kDseThreads);
  m += ",\"serve_workers\":" + std::to_string(perfbench::kServeWorkers);
  m += ",\"compiler\":" + quote(PERFBENCH_COMPILER);
  m += ",\"build_type\":" + quote(PERFBENCH_BUILD_TYPE);
  m += ",\"git_sha\":" + quote(a.git_sha);
  m += ",\"workload\":" + quote(o.workload);
  m += ",\"seed\":" + std::to_string(o.seed);
  m += ",\"seconds\":" + number(o.seconds);
  m += ",\"trace\":" + std::string(o.trace ? "true" : "false");
  m += ",\"quick\":" + std::string(o.quick ? "true" : "false");
  m += "}";
  return m;
}

std::string metrics_json(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    out += quote(name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + quote(m.unit) + "}";
  }
  return out + "}";
}

Report run_workload(const std::string& name, const Options& o,
                    perfbench::Tracer& tracer) {
  std::printf("[run] %s%s\n", name.c_str(), o.trace ? " (traced)" : "");
  std::fflush(stdout);
  if (name == "serve-mix") return perfbench::run_serve_mix(o, tracer);
  if (name == "kws-stream") return perfbench::run_kws_stream(o, tracer);
  return perfbench::run_dse_lenet(o, tracer);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Options& o = args.options;
  try {
    if (args.prepare) {
      perfbench::prepare_models(o.cache_dir);
      return 0;
    }
    const std::string meta = metadata(args);
    std::printf("[meta] %s\n", meta.c_str());

    // The traced pass covers every workload so that every per-layer
    // metric is measured in every traced run; "all" runs each workload's
    // untraced pass in turn.
    const bool every = o.trace || o.workload == "all";
    const std::vector<std::string> names =
        every ? std::vector<std::string>{"serve-mix", "kws-stream",
                                         "dse-lenet"}
              : std::vector<std::string>{o.workload};
    perfbench::Tracer tracer;
    Report total;
    for (const std::string& name : names) {
      Report r = run_workload(name, o, tracer);
      total.attempted += r.attempted;
      total.failed += r.failed;
      const double ok = r.attempted > 0
                            ? 1.0 - static_cast<double>(r.failed) /
                                        static_cast<double>(r.attempted)
                            : 0.0;
      if (!o.trace) r.set("ok_ratio", ok, "ratio");
      std::printf("[result] %s: %lld attempted, %lld failed "
                  "(fail_ratio %.6f)\n",
                  name.c_str(), static_cast<long long>(r.attempted),
                  static_cast<long long>(r.failed), 1.0 - ok);
      for (const auto& [alias, m] : r.named)
        std::printf("[metric] %-22s %14.6f %s\n", alias.c_str(), m.value,
                    m.unit.c_str());
      for (const auto& [metric, m] : r.metrics) {
        std::printf("  %-32s %16.6f %s\n", metric.c_str(), m.value,
                    m.unit.c_str());
        total.metrics[every && !o.trace ? name + "." + metric : metric] = m;
      }
      std::fflush(stdout);
    }

    ataman::ensure_directory(args.out_dir);
    const std::string stem = args.out_dir + "/" + o.workload + "-seed" +
                             std::to_string(o.seed) +
                             (o.trace ? "-traced" : "");
    if (o.trace) {
      perfbench::trace_metrics(total, tracer);
      std::ofstream(stem + ".trace.json") << tracer.chrome_json(meta);
      std::printf("[trace] %zu spans -> %s.trace.json\n",
                  tracer.spans().size(), stem.c_str());
    }
    const std::string result =
        "{\"correct\": " + std::string(total.failed == 0 ? "true" : "false") +
        ", \"attempted\": " + std::to_string(total.attempted) +
        ", \"failed\": " + std::to_string(total.failed) +
        ", \"metrics\": " + metrics_json(total.metrics) + "}";
    std::ofstream(stem + ".result.json")
        << "{\"meta\": " << meta << ", \"result\": " << result << "}\n";
    std::printf("%s\n", result.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
