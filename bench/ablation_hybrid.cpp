// Extension bench: flash-constrained hybrid deployment.
//
// The paper always unpacks every conv layer (§II-B; its models fit the
// 2MB part). This harness evaluates the generalized policy from
// src/unpack/layer_selection.hpp — per-layer packed/unpacked choice under
// a flash budget — and shows (a) hybrid never loses to all-unpack, (b) on
// wide fast-path models it wins outright, and (c) how latency degrades
// gracefully as the flash budget shrinks below the full-unpack footprint.
#include "bench/bench_common.hpp"
#include "src/unpack/layer_selection.hpp"
#include "src/unpack/unpacked_engine.hpp"

namespace {

using namespace ataman;
using namespace ataman::bench;

void run_network(const BenchModel& m, Scale scale, ConsoleTable& table,
                 CsvWriter& csv) {
  const BoardSpec board = stm32u575_board();
  PipelineOptions opts;
  opts.dse = dse_options_for(m.name, scale);
  AtamanPipeline pipe(&m.qmodel, &m.data.train, &m.data.test, opts);
  const DseOutcome outcome = pipe.explore();
  const int idx = pipe.select(outcome, 0.0);
  check(idx >= 0, "no 0% design");
  const SkipMask mask =
      pipe.mask_for(outcome.results[static_cast<size_t>(idx)].config);
  const int eval_limit = scale == Scale::kQuick ? 300 : 800;

  // All-unpack (the paper's policy) vs hybrid at several budgets.
  UnpackedEngine all_unpack(&m.qmodel, &mask);
  all_unpack.set_design_name("all-unpack");
  const DeployReport base = all_unpack.deploy(m.data.test, board, eval_limit);
  table.row({m.name, "all-unpack (paper policy)",
             std::to_string(m.qmodel.conv_layer_count()),
             fmt(base.latency_ms, 1),
             fmt(static_cast<double>(base.flash_bytes) / 1024.0, 0),
             fmt(100 * base.top1_accuracy, 1)});
  csv.row({m.name, "all-unpack", CsvWriter::num(base.latency_ms),
           CsvWriter::num(static_cast<double>(base.flash_bytes)),
           CsvWriter::num(base.top1_accuracy)});

  for (const int64_t budget_kb : {2000, 800, 400, 250}) {
    const HybridPlan plan =
        select_layers_to_unpack(m.qmodel, mask, budget_kb * 1024);
    const std::vector<uint8_t> selection = plan.unpack_selection();
    UnpackedEngine hybrid(&m.qmodel, &mask, &selection);
    hybrid.set_design_name("hybrid@" + std::to_string(budget_kb) + "KB");
    const DeployReport r = hybrid.deploy(m.data.test, board, eval_limit);
    table.row({m.name, r.design, std::to_string(plan.unpacked_count()),
               fmt(r.latency_ms, 1),
               fmt(static_cast<double>(r.flash_bytes) / 1024.0, 0),
               fmt(100 * r.top1_accuracy, 1)});
    csv.row({m.name, r.design, CsvWriter::num(r.latency_ms),
             CsvWriter::num(static_cast<double>(r.flash_bytes)),
             CsvWriter::num(r.top1_accuracy)});
  }
  table.separator();
}

}  // namespace

int main(int argc, char** argv) {
  const Scale scale = parse_scale(argc, argv);
  print_header("Extension: flash-constrained hybrid (packed|unpacked) "
               "deployment",
               scale);

  ConsoleTable table({"Network", "Policy", "Unpacked convs", "Latency(ms)",
                      "Flash(KB)", "Top-1(%)"});
  CsvWriter csv(results_dir() + "/ablation_hybrid.csv",
                {"network", "policy", "latency_ms", "flash_bytes",
                 "accuracy"});

  const BenchModel lenet = load_lenet();
  run_network(lenet, scale, table, csv);
  const BenchModel alexnet = load_alexnet();
  run_network(alexnet, scale, table, csv);

  std::printf("%s\n", table.render("Hybrid deployment").c_str());
  std::printf("Reading: hybrid keeps wide fast-path layers packed unless\n"
              "skipping tips the balance, so it never loses to all-unpack\n"
              "and degrades gracefully when flash is scarce.\n");
  std::printf("CSV: %s/ablation_hybrid.csv\n", results_dir().c_str());
  return 0;
}
