// Command-line front end for the full framework — the closest analogue to
// the paper's "automated toolkit" entry point.
//
// Usage:
//   ataman_cli [--model lenet|alexnet|micronet|dscnn|mobilenetv2|vww|
//               ae_anomaly]
//              [--loss 0.05]
//              [--eval-images N] [--tau-step S] [--engine NAME]
//              [--fast-dse | --exact-sweep]
//              [--emit out.c] [--json report.json] [--hybrid]
//              [--serve [--requests N] [--serve-workers W]
//               [--serve-batch B]]
//
// Runs: load/train + quantize -> analyze -> DSE -> select at the given
// accuracy-loss budget -> deploy (vs CMSIS-NN and X-CUBE-AI) -> optional
// C emission, with a machine-readable JSON report. `--engine` picks the
// EngineRegistry backend the selected design is deployed through
// (default "unpacked"; exact backends ignore the skip mask). The sweep
// runs through the layer-prefix activation cache with adaptive early
// exit (`--fast-dse`, the default); `--exact-sweep` evaluates every
// config on the full image budget instead — bitwise identical to the
// per-config sweep. See docs/DSE.md.
//
// `--serve` appends a serving demo after deployment: the selected
// approximate design plus the exact comparators are served as mixed
// traffic through the batched async runtime (src/serve), and every
// result is cross-checked bitwise against serial execution. See
// docs/SERVING.md.
#include <cstdio>
#include <cstring>
#include <string>

#include "src/common/stopwatch.hpp"
#include "src/core/ataman.hpp"
#include "src/core/engine_iface.hpp"
#include "src/core/eval.hpp"
#include "src/serve/server.hpp"
#include "src/unpack/layer_selection.hpp"

namespace {

using namespace ataman;

struct CliArgs {
  std::string model = "micronet";
  double loss = 0.05;
  int eval_images = 400;
  double tau_step = 0.01;
  std::string engine = "unpacked";
  std::string emit_path;
  std::string json_path;
  bool hybrid = false;
  // --fast-dse is accepted purely so scripts can state the (default)
  // sweep mode explicitly; its only effect is the mutual-exclusion check
  // against --exact-sweep, which is what actually switches modes.
  bool fast_dse = false;
  bool exact_sweep = false;  // escape hatch: full-budget, bitwise-exact DSE
  bool serve = false;        // post-deploy serving demo (src/serve)
  int requests = 64;         // --serve traffic volume
  int serve_workers = 4;
  int serve_batch = 8;
};

CliArgs parse_args(int argc, char** argv) {
  CliArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      check(i + 1 < argc, "missing value for " + a);
      return argv[++i];
    };
    if (a == "--model") {
      args.model = next();
    } else if (a == "--loss") {
      args.loss = std::stod(next());
    } else if (a == "--eval-images") {
      args.eval_images = std::stoi(next());
    } else if (a == "--tau-step") {
      args.tau_step = std::stod(next());
    } else if (a == "--engine") {
      args.engine = next();
    } else if (a == "--emit") {
      args.emit_path = next();
    } else if (a == "--json") {
      args.json_path = next();
    } else if (a == "--hybrid") {
      args.hybrid = true;
    } else if (a == "--fast-dse") {
      args.fast_dse = true;
    } else if (a == "--exact-sweep") {
      args.exact_sweep = true;
    } else if (a == "--serve") {
      args.serve = true;
    } else if (a == "--requests") {
      args.requests = std::stoi(next());
    } else if (a == "--serve-workers") {
      args.serve_workers = std::stoi(next());
    } else if (a == "--serve-batch") {
      args.serve_batch = std::stoi(next());
    } else if (a == "--help" || a == "-h") {
      std::string engines;
      for (const std::string& n : EngineRegistry::instance().names()) {
        if (!engines.empty()) engines += "|";
        engines += n;
      }
      std::printf(
          "usage: ataman_cli [--model "
          "lenet|alexnet|micronet|dscnn|mobilenetv2|vww|ae_anomaly]\n"
          "                  [--loss F]\n"
          "                  [--eval-images N] [--tau-step S]\n"
          "                  [--engine %s]\n"
          "                  [--fast-dse | --exact-sweep]\n"
          "                  [--emit F.c] [--json F.json] [--hybrid]\n"
          "                  [--serve [--requests N] [--serve-workers W]\n"
          "                   [--serve-batch B]]\n",
          engines.c_str());
      std::exit(0);
    } else {
      fail("unknown argument: " + a);
    }
  }
  return args;
}

Json report_json(const DeployReport& r) {
  JsonObject o;
  o.emplace("design", r.design);
  o.emplace("network", r.network);
  o.emplace("topology", r.topology);
  o.emplace("accuracy", r.top1_accuracy);
  o.emplace("latency_ms", r.latency_ms);
  o.emplace("flash_bytes", static_cast<int64_t>(r.flash_bytes));
  o.emplace("ram_bytes", static_cast<int64_t>(r.ram_bytes));
  o.emplace("energy_mj", r.energy_mj);
  o.emplace("mac_ops", static_cast<int64_t>(r.mac_ops));
  return Json(std::move(o));
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = parse_args(argc, argv);
  // Fail on a bad backend name before minutes of train/analyze/DSE work.
  check(EngineRegistry::instance().contains(args.engine),
        "unknown --engine '" + args.engine + "' (see --help)");
  check(!args.hybrid || args.engine == "unpacked",
        "--hybrid requires --engine unpacked");
  check(!(args.fast_dse && args.exact_sweep),
        "--fast-dse and --exact-sweep are mutually exclusive");
  check(args.model == "lenet" || args.model == "alexnet" ||
            args.model == "micronet" || args.model == "dscnn" ||
            args.model == "mobilenetv2" || args.model == "vww" ||
            args.model == "ae_anomaly",
        "unknown --model '" + args.model + "' (see --help)");

  const ZooSpec spec = args.model == "lenet"         ? lenet_spec()
                       : args.model == "alexnet"     ? alexnet_spec()
                       : args.model == "dscnn"       ? dscnn_spec()
                       : args.model == "mobilenetv2" ? mobilenetv2_spec()
                       : args.model == "vww"         ? vww_spec()
                       : args.model == "ae_anomaly"  ? ae_anomaly_spec()
                                                     : micronet_spec();
  std::printf("[cli] model=%s (%s) loss=%.3f\n", args.model.c_str(),
              spec.arch.topology.c_str(), args.loss);
  const QModel model = get_or_build_qmodel(spec);
  const SynthCifar data = make_synth_cifar(spec.data);

  PipelineOptions options;
  options.dse.eval_images = args.eval_images;
  options.dse.tau_step = args.tau_step;
  options.dse.exact_sweep = args.exact_sweep;
  AtamanPipeline pipeline(&model, &data.train, &data.test, options);

  const DseOutcome outcome = pipeline.explore([](int done, int total) {
    std::printf("\r[cli] DSE %d/%d", done, total);
    std::fflush(stdout);
  });
  std::printf("\n[cli] sweep (%s): %lld image evals, %lld prefix-cache "
              "hits, %d early exits\n",
              args.exact_sweep ? "exact" : "fast",
              static_cast<long long>(outcome.images_evaluated),
              static_cast<long long>(outcome.cache_hits),
              outcome.early_exits);
  const int idx = pipeline.select(outcome, args.loss);
  check(idx >= 0, "no design satisfies the requested accuracy budget");
  const DseResult& chosen = outcome.results[static_cast<size_t>(idx)];
  std::printf("[cli] selected %s\n", chosen.config.to_string().c_str());

  const DeployReport cmsis = pipeline.deploy_engine("cmsis", args.eval_images);
  const DeployReport xcube = pipeline.deploy_engine("xcube", args.eval_images);
  DeployReport ours;
  if (args.hybrid) {
    const SkipMask mask = pipeline.mask_for(chosen.config);
    const HybridPlan plan = select_layers_to_unpack(
        model, mask, pipeline.options().board.flash_bytes);
    const std::vector<uint8_t> selection = plan.unpack_selection();
    EngineConfig cfg;
    cfg.model = &model;
    cfg.mask = &mask;
    cfg.unpack_selection = &selection;
    cfg.design_name = "ataman-hybrid";
    const auto engine = EngineRegistry::instance().create("unpacked", cfg);
    ours = engine->deploy(data.test, pipeline.options().board,
                          args.eval_images);
  } else {
    // Deploy the chosen design through the requested backend. Mask-aware
    // backends (unpacked, ref) execute the approximate design; exact
    // backends (cmsis, xcube) ignore the mask and report their exact
    // operating point.
    ours = pipeline.deploy_engine(
        args.engine, args.eval_images, &chosen.config,
        args.engine == "unpacked" ? "ataman" : "");
  }

  for (const DeployReport* r :
       {&cmsis, &xcube, static_cast<const DeployReport*>(&ours)}) {
    std::printf("[cli] %-14s %-8s (%s)  acc %.4f  %7.2f ms  %6.0f KB  "
                "%.3f mJ\n",
                r->design.c_str(), r->network.c_str(), r->topology.c_str(),
                r->top1_accuracy, r->latency_ms,
                static_cast<double>(r->flash_bytes) / 1024.0, r->energy_mj);
  }

  ScoredAccuracy scored;
  if (model.head == TaskHead::kScore) {
    // Threshold-free quality of the scored head: the accuracy column
    // above is thresholded, AUC ranks the raw reconstruction scores.
    EngineConfig ref_cfg;
    ref_cfg.model = &model;
    const auto ref = EngineRegistry::instance().create("ref", ref_cfg);
    scored = evaluate_scored(*ref, data.test, args.eval_images);
    std::printf("[cli] scored head: threshold %.6f, AUC %.4f over %d "
                "images\n",
                static_cast<double>(model.score_threshold), scored.auc,
                scored.images);
  }

  if (args.serve) {
    // Serving demo: mixed exact/approximate traffic for the selected
    // design through the batched async runtime, cross-checked bitwise
    // against serial execution (the determinism contract).
    const SkipMask serve_mask = pipeline.mask_for(chosen.config);
    struct ServeKey {
      const char* engine;
      const SkipMask* mask;
    };
    const ServeKey keys[] = {
        {"unpacked", &serve_mask},
        {"cmsis", nullptr},
        {"ref", &serve_mask},
        {"xcube", nullptr},
    };
    std::vector<serve::InferRequest> traffic;
    traffic.reserve(static_cast<size_t>(args.requests));
    for (int i = 0; i < args.requests; ++i) {
      const ServeKey& key = keys[static_cast<size_t>(i) % std::size(keys)];
      serve::InferRequest r;
      r.engine = key.engine;
      r.mask = key.mask;
      const auto img = data.test.image(i % data.test.size());
      r.image.assign(img.begin(), img.end());
      traffic.push_back(std::move(r));
    }

    serve::ServeOptions serve_options;
    serve_options.workers = args.serve_workers;
    serve_options.max_batch = args.serve_batch;
    serve::InferenceServer server(&model, serve_options);
    Stopwatch sw;
    const std::vector<serve::InferFuture> futures =
        server.submit_all(std::vector<serve::InferRequest>(traffic));
    server.drain();
    const double wall_ms = sw.millis();

    // Serial oracles: one engine per configuration, reused across the
    // cross-check (the whole point of the runtime's engine pool).
    std::vector<std::unique_ptr<InferenceEngine>> oracles;
    for (const ServeKey& key : keys) {
      EngineConfig cfg;
      cfg.model = &model;
      cfg.mask = key.mask;
      oracles.push_back(EngineRegistry::instance().create(key.engine, cfg));
    }
    int mismatches = 0;
    for (size_t i = 0; i < traffic.size(); ++i) {
      const auto& serial = oracles[i % std::size(keys)];
      if (futures[i].get().logits != serial->run(traffic[i].image))
        ++mismatches;
    }
    const serve::ServeStats stats = server.stats();
    std::printf(
        "[serve] %d requests, %d workers, max batch %d: %.1f ms "
        "(%.0f req/s)\n",
        args.requests, args.serve_workers, args.serve_batch, wall_ms,
        1e3 * args.requests / wall_ms);
    std::printf(
        "[serve] %lld micro-batches (max fill %lld), %lld coalesced, "
        "%lld prototypes + %lld clones in the pool\n",
        static_cast<long long>(stats.batches),
        static_cast<long long>(stats.max_batch_seen),
        static_cast<long long>(stats.coalesced),
        static_cast<long long>(stats.pool.prototypes_built),
        static_cast<long long>(stats.pool.engines_cloned));
    check(mismatches == 0, "serve results diverged from serial execution");
    std::printf("[serve] all %d results bitwise identical to serial runs\n",
                args.requests);
  }

  if (!args.emit_path.empty()) {
    write_text_file(args.emit_path, pipeline.generate_code(chosen.config));
    std::printf("[cli] wrote %s\n", args.emit_path.c_str());
  }
  if (!args.json_path.empty()) {
    JsonObject root;
    root.emplace("model", args.model);
    root.emplace("loss_budget", args.loss);
    root.emplace("config", chosen.config.to_json());
    root.emplace("exact_accuracy", outcome.exact_accuracy);
    root.emplace("conv_mac_reduction", chosen.conv_mac_reduction);
    root.emplace("configs_evaluated",
                 static_cast<int64_t>(outcome.results.size()));
    root.emplace("pareto_points",
                 static_cast<int64_t>(outcome.pareto.size()));
    root.emplace("sweep_cache_hits", static_cast<int64_t>(outcome.cache_hits));
    root.emplace("sweep_images_evaluated",
                 static_cast<int64_t>(outcome.images_evaluated));
    root.emplace("sweep_early_exits", outcome.early_exits);
    if (model.head == TaskHead::kScore) {
      root.emplace("score_threshold",
                   static_cast<double>(model.score_threshold));
      root.emplace("score_auc", scored.auc);
    }
    JsonArray reports;
    reports.push_back(report_json(cmsis));
    reports.push_back(report_json(xcube));
    reports.push_back(report_json(ours));
    root.emplace("deployments", std::move(reports));
    write_text_file(args.json_path, Json(std::move(root)).dump_pretty());
    std::printf("[cli] wrote %s\n", args.json_path.c_str());
  }
  return 0;
}
