// Cost goldens: every modeled deployment number of every in-tree engine,
// pinned bit for bit.
//
// For ref / cmsis / unpacked / xcube over four fixture shapes (chain,
// residual DAG, depthwise, scored head) and three configurations (exact,
// a random skip mask, that mask plus a hybrid packed/unpacked selection),
// total_cycles, mac_ops, flash_bytes and ram_bytes must equal the values
// recorded below. Any refactor of the cost tallies, the execution plan
// or the rounding must leave these untouched; re-pricing the model is a
// deliberate act that updates the table.
//
// The DSE evaluator prices configurations without building an engine;
// its static cycles and flash must equal the unpacked engine built for
// the same mask on every config of a small sweep.
//
// Streamed frames are pinned the same way: the packed steady-state row
// (steady_state_stream_cost) per fixture and frame stride, and the
// evaluator's unpacked streaming row per config of that sweep.
//
// The hybrid packed/unpacked selection is pinned per layer: both forms'
// cycles and flash (analyze_layer_choices), the selection at an
// unlimited and at a tight flash budget (select_layers_to_unpack), and
// the evaluator's packed baseline.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/engine_iface.hpp"
#include "src/dse/evaluator.hpp"
#include "src/mcu/cost_model.hpp"
#include "src/nn/skip_mask.hpp"
#include "src/sig/act_stats.hpp"
#include "src/sig/significance.hpp"
#include "src/sig/skip_plan.hpp"
#include "src/unpack/layer_selection.hpp"
#include "src/unpack/unpacked_engine.hpp"
#include "tests/test_util.hpp"

namespace ataman {
namespace {

struct Costs {
  int64_t cycles, macs, flash, ram;
};

// Recorded from the engines as they price these fixtures today.
const std::map<std::string, Costs>& golden() {
  static const std::map<std::string, Costs> table = {
      {"tiny/ref/exact", {0, 41760, 0, 0}},
      {"tiny/ref/masked", {0, 29016, 0, 0}},
      {"tiny/ref/hybrid", {0, 29016, 0, 0}},
      {"tiny/cmsis/exact", {289552, 41760, 61298, 173544}},
      {"tiny/cmsis/masked", {289552, 41760, 61298, 173544}},
      {"tiny/cmsis/hybrid", {289552, 41760, 61298, 173544}},
      {"tiny/unpacked/exact", {142920, 41760, 48440, 173328}},
      {"tiny/unpacked/masked", {107604, 29016, 47292, 173328}},
      {"tiny/unpacked/hybrid", {177853, 33984, 45660, 173328}},
      {"tiny/xcube/exact", {204776, 41760, 43281, 155112}},
      {"tiny/xcube/masked", {204776, 41760, 43281, 155112}},
      {"tiny/xcube/hybrid", {204776, 41760, 43281, 155112}},
      {"residual/ref/exact", {0, 30208, 0, 0}},
      {"residual/ref/masked", {0, 22464, 0, 0}},
      {"residual/ref/hybrid", {0, 22464, 0, 0}},
      {"residual/cmsis/exact", {95185, 30208, 61000, 172944}},
      {"residual/cmsis/masked", {95185, 30208, 61000, 172944}},
      {"residual/cmsis/hybrid", {95185, 30208, 61000, 172944}},
      {"residual/unpacked/exact", {105184, 30208, 47448, 172800}},
      {"residual/unpacked/masked", {84224, 22464, 46736, 172800}},
      {"residual/unpacked/hybrid", {88539, 25280, 46052, 172800}},
      {"residual/xcube/exact", {74544, 30208, 42962, 154512}},
      {"residual/xcube/masked", {74544, 30208, 42962, 154512}},
      {"residual/xcube/hybrid", {74544, 30208, 42962, 154512}},
      {"depthwise/ref/exact", {0, 14016, 0, 0}},
      {"depthwise/ref/masked", {0, 9344, 0, 0}},
      {"depthwise/ref/hybrid", {0, 9344, 0, 0}},
      {"depthwise/cmsis/exact", {110804, 14016, 58192, 172908}},
      {"depthwise/cmsis/masked", {110804, 14016, 58192, 172908}},
      {"depthwise/cmsis/hybrid", {110804, 14016, 58192, 172908}},
      {"depthwise/unpacked/exact", {60062, 14016, 43424, 172800}},
      {"depthwise/unpacked/masked", {46878, 9344, 42972, 172800}},
      {"depthwise/unpacked/hybrid", {61049, 10560, 42554, 172800}},
      {"depthwise/xcube/exact", {79338, 14016, 41262, 154476}},
      {"depthwise/xcube/masked", {79338, 14016, 41262, 154476}},
      {"depthwise/xcube/hybrid", {79338, 14016, 41262, 154476}},
      {"scored/ref/exact", {0, 1536, 0, 0}},
      {"scored/ref/masked", {0, 1536, 0, 0}},
      {"scored/ref/hybrid", {0, 1536, 0, 0}},
      {"scored/cmsis/exact", {6388, 1536, 59328, 172096}},
      {"scored/cmsis/masked", {6388, 1536, 59328, 172096}},
      {"scored/cmsis/hybrid", {6388, 1536, 59328, 172096}},
      {"scored/unpacked/exact", {6388, 1536, 42944, 172096}},
      {"scored/unpacked/masked", {6388, 1536, 42944, 172096}},
      {"scored/unpacked/hybrid", {6388, 1536, 42944, 172096}},
      {"scored/xcube/exact", {5077, 1536, 42125, 153664}},
      {"scored/xcube/masked", {5077, 1536, 42125, 153664}},
      {"scored/xcube/hybrid", {5077, 1536, 42125, 153664}},
  };
  return table;
}

std::vector<std::pair<std::string, QModel>> fixtures() {
  std::vector<std::pair<std::string, QModel>> out;
  out.emplace_back("tiny", testing::make_tiny_qmodel(1201));
  out.emplace_back("residual", testing::make_residual_qmodel(1202));
  out.emplace_back("depthwise", testing::make_tiny_vww_qmodel(1203));
  out.emplace_back("scored", testing::make_tiny_scored_qmodel(1204));
  return out;
}

// Deterministic random mask skipping ~30% of every approximable layer's
// static operands.
SkipMask random_mask(const QModel& m, uint64_t seed) {
  SkipMask mask = SkipMask::none(m);
  Rng rng(seed);
  for (auto& layer : mask.masks)
    for (auto& s : layer) s = rng.next_bool(0.3) ? 1 : 0;
  return mask;
}

TEST(CostGolden, EveryEngineModelAndConfigMatchesTheRecordedCosts) {
  int checked = 0;
  for (const auto& [model_name, m] : fixtures()) {
    const SkipMask mask = random_mask(m, 1300 + m.layers.size());
    std::vector<uint8_t> hybrid(static_cast<size_t>(m.approx_layer_count()));
    for (size_t i = 0; i < hybrid.size(); ++i) hybrid[i] = i % 2 == 0;
    for (const char* engine : {"ref", "cmsis", "unpacked", "xcube"}) {
      for (const char* variant : {"exact", "masked", "hybrid"}) {
        EngineConfig cfg;
        cfg.model = &m;
        if (std::string(variant) != "exact") cfg.mask = &mask;
        if (std::string(variant) == "hybrid") cfg.unpack_selection = &hybrid;
        const auto e = EngineRegistry::instance().create(engine, cfg);
        const Costs got{e->total_cycles(), e->mac_ops(), e->flash_bytes(),
                        e->ram_bytes()};
        const std::string key =
            model_name + "/" + engine + "/" + variant;
        const auto it = golden().find(key);
        if (it == golden().end()) {
          ADD_FAILURE() << "no golden row; recorded now: {\"" << key
                        << "\", {" << got.cycles << ", " << got.macs << ", "
                        << got.flash << ", " << got.ram << "}},";
          continue;
        }
        EXPECT_EQ(got.cycles, it->second.cycles) << key;
        EXPECT_EQ(got.macs, it->second.macs) << key;
        EXPECT_EQ(got.flash, it->second.flash) << key;
        EXPECT_EQ(got.ram, it->second.ram) << key;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 4 * 4 * 3);
}

// The small evaluator sweep: an exact config, four uniform taus and, with
// more than one approximable layer, a first-layer-only config, scored
// with significance captured on 24 random images.
struct Sweep {
  Dataset eval;
  std::vector<LayerSignificance> sig;
  std::vector<ApproxConfig> configs;
};

Sweep small_sweep(const QModel& m) {
  const int approx = m.approx_layer_count();
  Sweep s{Dataset(ImageShape{m.in_h, m.in_w, m.in_c}, 10), {}, {}};
  Rng rng(1400);
  for (int i = 0; i < 24; ++i) {
    std::vector<uint8_t> img(static_cast<size_t>(m.in_h) * m.in_w * m.in_c);
    for (auto& p : img) p = static_cast<uint8_t>(rng.next_int(0, 255));
    s.eval.add(img, rng.next_int(0, 9));
  }
  s.sig =
      compute_model_significance(m, capture_activation_stats(m, s.eval, 24));
  s.configs = {ApproxConfig::exact(approx)};
  for (const double tau : {0.001, 0.01, 0.05, 0.2})
    s.configs.push_back(ApproxConfig::uniform(approx, tau));
  if (approx > 1) {
    ApproxConfig mixed = ApproxConfig::exact(approx);
    mixed.tau[0] = 0.05;
    s.configs.push_back(mixed);
  }
  return s;
}

TEST(CostGolden, EvaluatorStaticMetricsEqualTheUnpackedEngine) {
  for (const auto& [model_name, m] : fixtures()) {
    const Sweep sweep = small_sweep(m);
    const ConfigEvaluator ev(&m, &sweep.sig, &sweep.eval, -1);
    std::set<int64_t> distinct_cycles;
    for (const ApproxConfig& c : sweep.configs) {
      const SkipMask mask = make_skip_mask(m, sweep.sig, c);
      const UnpackedEngine engine(&m, &mask);
      const DseResult r = ev.evaluate_static(c);
      EXPECT_EQ(r.cycles, engine.total_cycles())
          << model_name << " " << c.to_string();
      EXPECT_EQ(r.flash_bytes, engine.flash_bytes())
          << model_name << " " << c.to_string();
      EXPECT_EQ(r.executed_macs, engine.mac_ops())
          << model_name << " " << c.to_string();
      distinct_cycles.insert(r.cycles);
    }
    // The sweep must actually skip something wherever there is something
    // to skip.
    if (m.approx_layer_count() > 0) {
      EXPECT_GT(distinct_cycles.size(), 1u) << model_name;
    }
  }
}

// Packed steady-state streaming frame per fixture and frame stride:
// {cycles_per_frame, spliced_elems}.
TEST(CostGolden, SteadyStateStreamCostMatchesTheRecordedRows) {
  static const std::map<std::string, std::pair<int64_t, int64_t>> table = {
      {"tiny/1", {140851, 696}},      {"tiny/2", {155409, 624}},
      {"tiny/3", {187643, 504}},      {"residual/1", {67384, 256}},
      {"residual/2", {74334, 192}},   {"residual/3", {81284, 128}},
      {"depthwise/1", {51303, 384}},  {"depthwise/2", {64667, 288}},
      {"depthwise/3", {78030, 192}},  {"scored/1", {6388, 0}},
      {"scored/2", {6388, 0}},        {"scored/3", {6388, 0}},
  };
  int checked = 0;
  for (const auto& [model_name, m] : fixtures()) {
    for (const int stride : {1, 2, 3}) {
      const StreamingCostRow row = steady_state_stream_cost(m, stride);
      const std::string key = model_name + "/" + std::to_string(stride);
      const auto it = table.find(key);
      if (it == table.end()) {
        ADD_FAILURE() << "no golden row; recorded now: {\"" << key << "\", {"
                      << row.cycles_per_frame << ", " << row.spliced_elems
                      << "}},";
        continue;
      }
      EXPECT_EQ(row.cycles_per_frame, it->second.first) << key;
      EXPECT_EQ(row.spliced_elems, it->second.second) << key;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 4 * 3);
}

// The evaluator's unpacked streaming row at frame stride 2, per config of
// the small sweep (keyed by fixture and config index).
TEST(CostGolden, EvaluatorStreamCyclesMatchTheRecordedRows) {
  static const std::map<std::string, int64_t> table = {
      {"tiny/0", 77990},      {"tiny/1", 76760},      {"tiny/2", 72629},
      {"tiny/3", 64103},      {"tiny/4", 48767},      {"tiny/5", 75998},
      {"residual/0", 81683},  {"residual/1", 80923},  {"residual/2", 77307},
      {"residual/3", 64443},  {"residual/4", 46843},  {"residual/5", 80371},
      {"depthwise/0", 36474}, {"depthwise/1", 36474}, {"depthwise/2", 36474},
      {"depthwise/3", 34610}, {"depthwise/4", 30426}, {"depthwise/5", 34778},
      {"scored/0", 6388},     {"scored/1", 6388},     {"scored/2", 6388},
      {"scored/3", 6388},     {"scored/4", 6388},
  };
  int checked = 0;
  for (const auto& [model_name, m] : fixtures()) {
    const Sweep sweep = small_sweep(m);
    ConfigEvaluator ev(&m, &sweep.sig, &sweep.eval, -1);
    ev.set_stream_stride(2);
    for (size_t i = 0; i < sweep.configs.size(); ++i) {
      const DseResult r = ev.evaluate_static(sweep.configs[i]);
      const std::string key = model_name + "/" + std::to_string(i);
      const auto it = table.find(key);
      if (it == table.end()) {
        ADD_FAILURE() << "no golden row; recorded now: {\"" << key << "\", "
                      << r.stream_cycles_per_frame << "},";
        continue;
      }
      EXPECT_EQ(r.stream_cycles_per_frame, it->second) << key;
      ++checked;
    }
  }
  EXPECT_EQ(checked, static_cast<int>(table.size()));
}

// Per approximable layer under the random mask: {packed_cycles,
// unpacked_cycles, packed_flash, unpacked_flash} (keyed by fixture and
// layer ordinal); the selection at budget 0 (unlimited) and at a budget
// that drops a layer; and ConfigEvaluator::baseline_cycles().
TEST(CostGolden, HybridChoicesAndBaselineMatchTheRecordedRows) {
  static const std::map<std::string, std::vector<int64_t>> choices = {
      {"tiny/0", {175619, 63920, 282, 1028}},
      {"tiny/1", {106629, 36380, 560, 2192}},
      {"residual/0", {28355, 24968, 256, 972}},
      {"residual/1", {28355, 24040, 256, 940}},
      {"residual/2", {28355, 25096, 256, 976}},
      {"depthwise/0", {78275, 28520, 282, 1028}},
      {"depthwise/1", {29891, 15720, 174, 592}},
  };
  struct Selection {
    std::string unlimited;
    int64_t tight_budget;
    std::string tight;
  };
  // Each tight budget is one byte below the all-unpacked flash, so the
  // layer with the least saving per extra byte is dropped (scored has no
  // approximable layer to drop).
  static const std::map<std::string, Selection> selections = {
      {"tiny", {"11", 47291, "10"}},
      {"residual", {"111", 46735, "110"}},
      {"depthwise", {"11", 42971, "10"}},
      {"scored", {"", 1, ""}},
  };
  static const std::map<std::string, int64_t> baselines = {
      {"tiny", 289552},
      {"residual", 95185},
      {"depthwise", 110804},
      {"scored", 6388},
  };
  const auto bits = [](const HybridPlan& plan) {
    std::string out;
    for (const uint8_t u : plan.unpack_selection()) out += u ? '1' : '0';
    return out;
  };
  int checked = 0;
  for (const auto& [model_name, m] : fixtures()) {
    const SkipMask mask = random_mask(m, 1300 + m.layers.size());
    const HybridPlan plan = analyze_layer_choices(m, mask);
    EXPECT_EQ(static_cast<int>(plan.choices.size()), m.approx_layer_count());
    for (size_t i = 0; i < plan.choices.size(); ++i) {
      const LayerDeployChoice& c = plan.choices[i];
      const std::vector<int64_t> got = {c.packed_cycles, c.unpacked_cycles,
                                        c.packed_flash, c.unpacked_flash};
      const std::string key = model_name + "/" + std::to_string(i);
      const auto it = choices.find(key);
      if (it == choices.end()) {
        ADD_FAILURE() << "no golden row; recorded now: {\"" << key << "\", {"
                      << got[0] << ", " << got[1] << ", " << got[2] << ", "
                      << got[3] << "}},";
        continue;
      }
      EXPECT_EQ(got, it->second) << key;
      ++checked;
    }

    const Sweep sweep = small_sweep(m);
    const ConfigEvaluator ev(&m, &sweep.sig, &sweep.eval, -1);
    const auto sel = selections.find(model_name);
    const auto base = baselines.find(model_name);
    if (sel == selections.end() || base == baselines.end()) {
      ADD_FAILURE() << "no golden row; recorded now: {\"" << model_name
                    << "\", {\"" << bits(select_layers_to_unpack(m, mask, 0))
                    << "\", ?, ?}}, baseline {\"" << model_name << "\", "
                    << ev.baseline_cycles() << "},";
      continue;
    }
    EXPECT_EQ(bits(select_layers_to_unpack(m, mask, 0)), sel->second.unlimited)
        << model_name;
    EXPECT_EQ(
        bits(select_layers_to_unpack(m, mask, sel->second.tight_budget)),
        sel->second.tight)
        << model_name;
    EXPECT_EQ(ev.baseline_cycles(), base->second) << model_name;
    ++checked;
  }
  EXPECT_EQ(checked, static_cast<int>(choices.size() + selections.size()));
}

}  // namespace
}  // namespace ataman
