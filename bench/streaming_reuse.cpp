// Streaming temporal-reuse harness: overlapping-window inference with
// incremental column recomputation (run_incremental) vs from-scratch
// per-frame execution (run) on the dscnn keyword-spotting model, on
// every in-tree engine (ref, cmsis, unpacked, xcube).
//
// Workload: a deterministic FrameStream slides a 32x32x3 window over a
// drifting signal, advancing `stride` columns per frame — the input
// shape of always-on audio/vision pipelines, where consecutive frames
// share all but a few input columns. Two execution modes:
//
//   reuse-off  every frame runs the full window from scratch through
//              InferenceEngine::run — the pre-streaming baseline, and
//              the path every non-session request still takes
//   reuse-on   frames feed InferenceEngine::run_incremental, which
//              recomputes only the columns the new input can reach
//              (plus kernel halo) and splices the rest from the
//              previous frames' activations (src/mcu/stream_plan.hpp)
//
// Every reuse-on frame's logits are cross-checked bitwise against the
// same engine's reuse-off run of the same window (exit 2 on any
// mismatch) — temporal reuse is an exactness optimization, not an
// approximation. Each engine's measured steady-state recomputed-MAC
// counter is also checked against the static splice plan
// (plan_stream_steady), pinning the cost model to the executed reality.
// The verdict requires the steady-state per-frame MAC reduction to reach
// >= 2x on every engine; --strict turns a missed target into exit 1 for
// CI use.
//
//   ./build/bench/streaming_reuse [--quick] [--strict]
//                                 [--frames N] [--stride S]
#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/common/metrics.hpp"
#include "src/data/frame_stream.hpp"
#include "src/mcu/cost_model.hpp"
#include "src/mcu/stream_plan.hpp"

namespace {

using namespace ataman;

struct Args {
  bool quick = false;
  bool strict = false;
  int frames = 0;  // 0 -> per-scale default
  int stride = 2;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      a.quick = true;
    } else if (arg == "--strict") {
      a.strict = true;
    } else if (arg == "--frames" && i + 1 < argc) {
      a.frames = std::stoi(argv[++i]);
    } else if (arg == "--stride" && i + 1 < argc) {
      a.stride = std::stoi(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      std::exit(64);
    }
  }
  return a;
}

// One engine's run over the stream: reuse-off and reuse-on latencies and
// the steady-state recomputed-MAC counter.
struct EngineRun {
  std::string engine;
  int64_t full_macs = 0;
  int64_t steady_macs = 0;
  std::vector<double> off_ms, on_ms;
};

// Runs every frame both ways and exits 2 on a parity or plan mismatch.
EngineRun run_engine(const char* name, const QModel& model,
                     const FrameStream& stream, int frames,
                     const StreamPlan& plan) {
  EngineConfig cfg;
  cfg.model = &model;
  const auto engine = EngineRegistry::instance().create(name, cfg);
  EngineRun r;
  r.engine = name;
  r.full_macs = engine->mac_ops();

  // --- reuse-off: every frame from scratch --------------------------------
  std::vector<std::vector<int8_t>> expected(static_cast<size_t>(frames));
  for (int i = 0; i < frames; ++i) {
    const auto window = stream.frame(i);
    Stopwatch sw;
    expected[static_cast<size_t>(i)] = engine->run(window);
    r.off_ms.push_back(sw.millis());
  }

  // --- reuse-on: incremental columns through a streaming state ------------
  StreamState state;
  int mismatches = 0;
  for (int i = 0; i < frames; ++i) {
    const auto columns = stream.new_columns(i);
    Stopwatch sw;
    const auto logits = engine->run_incremental(state, columns);
    r.on_ms.push_back(sw.millis());
    r.steady_macs = state.last_recomputed_macs;  // last frame = steady state
    if (logits != expected[static_cast<size_t>(i)]) ++mismatches;
  }
  if (mismatches != 0) {
    std::fprintf(stderr,
                 "FATAL: %s reuse-on diverged from from-scratch on %d frames "
                 "— bitwise parity contract broken\n",
                 name, mismatches);
    std::exit(2);
  }

  // --- engine counter vs static splice plan -------------------------------
  if (r.steady_macs != plan.frame_macs) {
    std::fprintf(stderr,
                 "FATAL: %s recomputed %lld MACs at steady state but the "
                 "splice plan predicts %lld — cost model unpinned\n",
                 name, static_cast<long long>(r.steady_macs),
                 static_cast<long long>(plan.frame_macs));
    std::exit(2);
  }
  std::printf("[%s] all %d reuse-on frames bitwise == from-scratch; "
              "steady-state recomputed MACs %lld == splice plan\n",
              name, frames, static_cast<long long>(r.steady_macs));
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const int frames = args.frames > 0 ? args.frames : args.quick ? 24 : 96;
  std::printf("==============================================================\n");
  std::printf("Streaming reuse: incremental columns vs from-scratch frames\n");
  std::printf("  model=dscnn  frames=%d  stride=%d cols/frame  flags:%s%s\n",
              frames, args.stride, args.quick ? " --quick" : "",
              args.strict ? " --strict" : "");
  std::printf("==============================================================\n");

  const QModel model = get_or_build_qmodel(dscnn_spec());
  FrameStreamSpec stream_spec;
  stream_spec.frames = frames;
  stream_spec.stride_cols = args.stride;
  const FrameStream stream(stream_spec);
  const StreamPlan plan = plan_stream_steady(model, args.stride);

  std::vector<EngineRun> runs;
  for (const char* name : {"ref", "cmsis", "unpacked", "xcube"})
    runs.push_back(run_engine(name, model, stream, frames, plan));

  // --- paper-board steady-state cost row ----------------------------------
  const StreamingCostRow cost = steady_state_stream_cost(model, args.stride);
  const BoardSpec board;
  std::printf(
      "[board] %s: %.2f ms/frame, %.3f mJ/frame at steady state "
      "(full frame: %.2f ms, %.3f mJ)\n",
      board.name.c_str(), board.cycles_to_ms(cost.cycles_per_frame),
      board.energy_mj(cost.cycles_per_frame),
      board.cycles_to_ms(cost.full_cycles), board.energy_mj(cost.full_cycles));

  // --- report -------------------------------------------------------------
  ConsoleTable table({"engine", "mode", "p50 ms", "p95 ms",
                      "steady MACs/frame", "MAC ratio"});
  CsvWriter csv(bench::results_dir() + "/streaming_reuse.csv",
                {"engine", "mode", "frames", "stride_cols", "p50_ms",
                 "p95_ms", "steady_macs_per_frame", "mac_ratio",
                 "cycles_per_frame", "energy_mj_per_frame"});
  double worst_ratio = std::numeric_limits<double>::infinity();
  for (const EngineRun& run : runs) {
    struct Row {
      const char* mode;
      const std::vector<double>* ms;
      int64_t macs;
      int64_t cycles;
    };
    const Row rows[] = {
        {"reuse-off", &run.off_ms, run.full_macs, cost.full_cycles},
        {"reuse-on", &run.on_ms, run.steady_macs, cost.cycles_per_frame},
    };
    for (const Row& r : rows) {
      const double r_ratio =
          static_cast<double>(run.full_macs) / static_cast<double>(r.macs);
      table.row({run.engine, r.mode, bench::fmt(percentile(*r.ms, 50.0), 3),
                 bench::fmt(percentile(*r.ms, 95.0), 3),
                 std::to_string(r.macs), bench::fmt(r_ratio, 2)});
      csv.row({run.engine, r.mode, std::to_string(frames),
               std::to_string(args.stride),
               CsvWriter::num(percentile(*r.ms, 50.0)),
               CsvWriter::num(percentile(*r.ms, 95.0)),
               std::to_string(r.macs), CsvWriter::num(r_ratio),
               std::to_string(r.cycles),
               CsvWriter::num(board.energy_mj(r.cycles))});
    }
    const double ratio = static_cast<double>(run.full_macs) /
                         static_cast<double>(run.steady_macs);
    worst_ratio = std::min(worst_ratio, ratio);
  }
  std::printf("%s", table.render("per-frame latency and steady-state MACs")
                        .c_str());
  std::printf("[csv] %s\n", csv.path().c_str());

  // --- verdict ------------------------------------------------------------
  const bool pass = worst_ratio >= 2.0;
  std::printf(
      "[verdict] %s: steady-state MAC reduction >= %.2fx on every engine "
      "(target >=2x), bitwise parity held on all %d frames\n",
      pass ? "PASS" : "FAIL", worst_ratio, frames);
  return pass || !args.strict ? 0 : 1;
}
