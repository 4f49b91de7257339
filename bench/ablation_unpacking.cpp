// Ablation of the paper's two §II claims plus the design-choice split:
//   (a) §II-A: compile-time customization cuts runtime flash by up to 30%;
//   (b) §II-B: a fully unpacked fixed-weight convolution fits the flash
//       budget (AlexNet: < 60% of available flash);
//   (c) unpack-only vs skip-only vs cooperative (unpack+skip) — where the
//       latency actually comes from.
#include "bench/bench_common.hpp"
#include "src/cmsisnn/cmsis_engine.hpp"
#include "src/unpack/unpacked_engine.hpp"

namespace {

using namespace ataman;
using namespace ataman::bench;

void ablate(const BenchModel& m, Scale scale, ConsoleTable& table,
            CsvWriter& csv) {
  const BoardSpec board = stm32u575_board();
  PipelineOptions opts;
  opts.dse = dse_options_for(m.name, scale);
  AtamanPipeline pipe(&m.qmodel, &m.data.train, &m.data.test, opts);

  // Baseline packed.
  const CmsisEngine cmsis(&m.qmodel);
  const double base_ms = board.cycles_to_ms(cmsis.total_cycles());

  // (b) Full unpack, no skipping.
  const UnpackedEngine unpack_only(&m.qmodel);
  const double unpack_ms = board.cycles_to_ms(unpack_only.total_cycles());
  const FlashReport uflash = unpack_only.flash();
  const double avail =
      static_cast<double>(board.flash_bytes);

  // (c) Cooperative: best 0%-loss design.
  const DseOutcome outcome = pipe.explore();
  const int idx0 = pipe.select(outcome, 0.0);
  check(idx0 >= 0, "no 0% design");
  const DseResult& coop = outcome.results[static_cast<size_t>(idx0)];
  const double coop_ms = board.cycles_to_ms(coop.cycles);

  // Skip-only: same skip mask but executed by the *packed* engine — the
  // loop structure cannot exploit static skips, so cycles stay at the
  // baseline. This is exactly why the paper needs unpacking: skipping
  // becomes instruction removal only in unpacked code.
  const double skip_only_ms = base_ms;

  table.row({m.name, "cmsis packed (exact)", fmt(base_ms, 1),
             fmt(static_cast<double>(packed_flash(m.qmodel).total_bytes) /
                     1024.0, 0),
             "1.000"});
  table.row({m.name, "unpack only (exact)", fmt(unpack_ms, 1),
             fmt(static_cast<double>(uflash.total_bytes) / 1024.0, 0),
             fmt(base_ms / unpack_ms, 3)});
  table.row({m.name, "skip only (packed loops)", fmt(skip_only_ms, 1),
             fmt(static_cast<double>(packed_flash(m.qmodel).total_bytes) /
                     1024.0, 0),
             "1.000"});
  table.row({m.name, "cooperative @0% loss", fmt(coop_ms, 1),
             fmt(static_cast<double>(coop.flash_bytes) / 1024.0, 0),
             fmt(base_ms / coop_ms, 3)});
  table.separator();

  csv.row({m.name, CsvWriter::num(base_ms), CsvWriter::num(unpack_ms),
           CsvWriter::num(coop_ms),
           CsvWriter::num(static_cast<double>(uflash.total_bytes)),
           CsvWriter::num(static_cast<double>(coop.flash_bytes))});

  // (a) runtime customization claim.
  const double runtime_saving =
      100.0 *
      (1.0 - static_cast<double>(kMemoryCosts.custom_runtime_code) /
                 static_cast<double>(kMemoryCosts.generic_runtime_code));
  std::printf("[%s] runtime flash: generic %lldKB -> customized %lldKB "
              "(%.0f%% smaller; paper: up to 30%%)\n",
              m.name.c_str(),
              static_cast<long long>(kMemoryCosts.generic_runtime_code / 1024),
              static_cast<long long>(kMemoryCosts.custom_runtime_code / 1024),
              runtime_saving);

  // (b) full-unpack flash budget claim.
  std::printf("[%s] fully unpacked convs: %.0fKB = %.0f%% of the %lldKB "
              "flash%s\n",
              m.name.c_str(),
              static_cast<double>(uflash.total_bytes) / 1024.0,
              100.0 * static_cast<double>(uflash.total_bytes) / avail,
              static_cast<long long>(board.flash_bytes / 1024),
              m.name == "alexnet" ? "  (paper: <60% of available)" : "");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Scale scale = parse_scale(argc, argv);
  print_header("Ablation: kernel customization, unpack-only, skip-only, "
               "cooperative",
               scale);

  ConsoleTable table(
      {"Network", "Design", "Latency(ms)", "Flash(KB)", "Speedup"});
  CsvWriter csv(results_dir() + "/ablation_unpacking.csv",
                {"network", "cmsis_ms", "unpack_only_ms", "cooperative_ms",
                 "unpack_flash_bytes", "coop_flash_bytes"});

  const BenchModel lenet = load_lenet();
  ablate(lenet, scale, table, csv);
  const BenchModel alexnet = load_alexnet();
  ablate(alexnet, scale, table, csv);

  std::printf("%s\n", table.render("Ablation").c_str());
  std::printf("Note: 'skip only' keeps packed loop kernels, which cannot\n"
              "skip statically-removed products — cooperative unpack+skip\n"
              "is required to convert MAC reduction into cycles (the\n"
              "paper's central design argument).\n");
  std::printf("CSV: %s/ablation_unpacking.csv\n", results_dir().c_str());
  return 0;
}
