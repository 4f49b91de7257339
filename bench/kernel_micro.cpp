// google-benchmark microbenches for the kernel substrates: host execution
// throughput of packed vs unpacked vs skipped convolutions, plus the
// modeled MCU cycles attached as counters (the numbers that actually
// decide Table II). Host ns/op and modeled device cycles are independent
// axes; both should move the same direction under skipping.
#include <benchmark/benchmark.h>

#include "src/cmsisnn/packed_kernels.hpp"
#include "src/cmsisnn/smlad.hpp"
#include "src/mcu/cost_model.hpp"
#include "src/nn/qkernels_ref.hpp"
#include "src/sig/significance.hpp"
#include "src/unpack/unpacked_layer.hpp"
#include "tests/test_util.hpp"

namespace {

using namespace ataman;

QConv2D bench_conv() {
  ConvGeom g;
  g.in_h = 16; g.in_w = 16; g.in_c = 16;
  g.out_c = 16; g.kernel = 3; g.stride = 1; g.pad = 1;
  return ataman::testing::make_random_qconv(g, 4242);
}

void BM_ConvReference(benchmark::State& state) {
  // state.range(0): percent of operands skipped (0: no mask).
  const QConv2D conv = bench_conv();
  const auto skip = ataman::testing::make_random_skip(
      conv.geom, state.range(0) / 100.0, 77);
  const auto in = ataman::testing::make_random_input(16 * 16 * 16, 1);
  std::vector<int8_t> out(static_cast<size_t>(conv.geom.positions()) *
                          conv.geom.out_c);
  for (auto _ : state) {
    conv2d_ref(conv, in, out, state.range(0) > 0 ? skip.data() : nullptr);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["macs"] = static_cast<double>(conv.geom.macs());
}
BENCHMARK(BM_ConvReference)->Arg(0)->Arg(50);

void BM_ConvPackedCmsis(benchmark::State& state) {
  const QConv2D conv = bench_conv();
  const PackedWeights packed = PackedWeights::pack(
      conv.weights, conv.geom.out_c, conv.geom.patch_size());
  const auto in = ataman::testing::make_random_input(16 * 16 * 16, 2);
  std::vector<int8_t> out(static_cast<size_t>(conv.geom.positions()) *
                          conv.geom.out_c);
  for (auto _ : state) {
    packed_conv2d(conv, packed, in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["modeled_mcu_cycles"] =
      static_cast<double>(packed_conv_cycles(conv));
}
BENCHMARK(BM_ConvPackedCmsis);

void BM_ConvUnpacked(benchmark::State& state) {
  // state.range(0): percent of operands skipped.
  const QConv2D conv = bench_conv();
  const auto skip = ataman::testing::make_random_skip(
      conv.geom, state.range(0) / 100.0, 77);
  const UnpackedLayer u = UnpackedLayer::build(
      conv, state.range(0) > 0 ? skip.data() : nullptr);
  const auto in = ataman::testing::make_random_input(16 * 16 * 16, 3);
  std::vector<int8_t> out(static_cast<size_t>(conv.geom.positions()) *
                          conv.geom.out_c);
  for (auto _ : state) {
    u.run(in, out);
    benchmark::DoNotOptimize(out.data());
  }
  double cycles = 0.0;
  add_step_cycles(cycles, conv, PriceList::kUnpacked,
                  u.static_pairs(), u.static_singles());
  state.counters["modeled_mcu_cycles"] = cycles;
  state.counters["retained_macs"] = static_cast<double>(u.retained_macs());
}
BENCHMARK(BM_ConvUnpacked)->Arg(0)->Arg(25)->Arg(50)->Arg(75);

// Every sibling skip set of one layer, as the DSE prefix cache needs
// them: LeNet conv3's geometry (8x8x20 -> 32, 5x5, pad 2) with rungs
// skipping 0/25/46/72/92% of the operands (S uniform in [0, 1), so each
// rung tau is its skipped fraction). state.range(0): 0 = one five-rung
// pass (UnpackedLayer::run_rungs), 1 = five one-rung run() calls.
void BM_ConvRungs(benchmark::State& state) {
  ConvGeom g;
  g.in_h = 8; g.in_w = 8; g.in_c = 20;
  g.out_c = 32; g.kernel = 5; g.stride = 1; g.pad = 2;
  const QConv2D conv = ataman::testing::make_random_qconv(g, 4343);
  const std::vector<double> taus = {0.25, 0.46, 0.72, 0.92};
  LayerSignificance sig;
  sig.out_c = g.out_c;
  sig.patch = g.patch_size();
  Rng rng(78);
  sig.S.resize(static_cast<size_t>(g.weight_count()));
  for (float& v : sig.S) v = rng.next_float();
  const UnpackedLayer rungs = UnpackedLayer::build_rungs(conv, sig, taus);
  std::vector<UnpackedLayer> singles;
  for (size_t r = 0; r <= taus.size(); ++r) {
    std::vector<uint8_t> skip(sig.S.size(), 0);
    for (size_t op = 0; op < skip.size(); ++op)
      skip[op] = r > 0 && sig.S[op] <= static_cast<float>(taus[r - 1]);
    singles.push_back(UnpackedLayer::build(conv, skip.data()));
  }
  const auto in = ataman::testing::make_random_input(8 * 8 * 20, 4);
  std::vector<std::vector<int8_t>> out(
      singles.size(),
      std::vector<int8_t>(static_cast<size_t>(g.positions()) * g.out_c));
  const std::vector<std::span<int8_t>> outs(out.begin(), out.end());
  for (auto _ : state) {
    if (state.range(0) == 0) {
      rungs.run_rungs(in, outs);
    } else {
      for (size_t r = 0; r < singles.size(); ++r) singles[r].run(in, outs[r]);
    }
    benchmark::DoNotOptimize(out[0].data());
    benchmark::ClobberMemory();
  }
  int64_t retained = 0;
  for (const UnpackedLayer& u : singles) retained += u.retained_macs();
  state.counters["retained_macs_sum"] = static_cast<double>(retained);
}
BENCHMARK(BM_ConvRungs)->Arg(0)->Arg(1);

// Batched GEMM rows: state.range(0) = batch size. items/s counts images,
// so the per-image amortization of streaming each weight pair (or each
// unpacked program) once per lane-block shows up directly as items/s
// scaling from Arg(1) to Arg(8).
void BM_ConvPackedCmsisBatch(benchmark::State& state) {
  const QConv2D conv = bench_conv();
  const int batch = static_cast<int>(state.range(0));
  const PackedWeights packed = PackedWeights::pack(
      conv.weights, conv.geom.out_c, conv.geom.patch_size());
  const auto in = ataman::testing::make_random_input(
      static_cast<int64_t>(16 * 16 * 16) * batch, 2);
  std::vector<int8_t> out(static_cast<size_t>(conv.geom.positions()) *
                          conv.geom.out_c * static_cast<size_t>(batch));
  for (auto _ : state) {
    packed_conv2d(conv, packed, in, out, batch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
  state.counters["modeled_mcu_cycles_per_image"] = static_cast<double>(
      packed_conv_cycles(conv));
}
BENCHMARK(BM_ConvPackedCmsisBatch)->Arg(1)->Arg(4)->Arg(8);

void BM_ConvUnpackedBatch(benchmark::State& state) {
  // state.range(0) = batch; exact unpacking (no skips) to isolate the
  // batch amortization axis from the skip axis of BM_ConvUnpacked.
  const QConv2D conv = bench_conv();
  const int batch = static_cast<int>(state.range(0));
  const UnpackedLayer u = UnpackedLayer::build(conv);
  const auto in = ataman::testing::make_random_input(
      static_cast<int64_t>(16 * 16 * 16) * batch, 3);
  std::vector<int8_t> out(static_cast<size_t>(conv.geom.positions()) *
                          conv.geom.out_c * static_cast<size_t>(batch));
  for (auto _ : state) {
    u.run(in, out, batch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ConvUnpackedBatch)->Arg(1)->Arg(4)->Arg(8);

void BM_DenseBatch(benchmark::State& state) {
  const QDense fc = ataman::testing::make_random_qdense(1024, 64, 4545);
  const int batch = static_cast<int>(state.range(0));
  const PackedWeights packed =
      PackedWeights::pack(fc.weights, fc.out_dim, fc.in_dim);
  const auto in = ataman::testing::make_random_input(
      static_cast<int64_t>(fc.in_dim) * batch, 21);
  std::vector<int8_t> out(static_cast<size_t>(fc.out_dim) *
                          static_cast<size_t>(batch));
  for (auto _ : state) {
    packed_dense(fc, packed, in, out, batch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_DenseBatch)->Arg(1)->Arg(4)->Arg(8);

QDepthwiseConv2D bench_depthwise() {
  return ataman::testing::make_random_qdw(16, 16, 16, /*kernel=*/3,
                                          /*stride=*/1, /*pad=*/1, 4343);
}

// Skip mask over the (channel, tap) operands with `percent` of them set.
std::vector<uint8_t> bench_depthwise_skip(const QDepthwiseConv2D& dw,
                                          int64_t percent) {
  Rng rng(177);
  std::vector<uint8_t> skip(static_cast<size_t>(dw.weight_count()));
  for (auto& m : skip) m = rng.next_bool(percent / 100.0) ? 1 : 0;
  return skip;
}

void BM_DepthwiseReference(benchmark::State& state) {
  // state.range(0): percent of (channel, tap) operands skipped (0: no mask).
  const QDepthwiseConv2D dw = bench_depthwise();
  const auto skip = bench_depthwise_skip(dw, state.range(0));
  const auto in = ataman::testing::make_random_input(16 * 16 * 16, 11);
  std::vector<int8_t> out(static_cast<size_t>(dw.positions()) * dw.channels);
  for (auto _ : state) {
    depthwise_conv2d_ref(dw, in, out,
                         state.range(0) > 0 ? skip.data() : nullptr);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["macs"] = static_cast<double>(dw.macs());
}
BENCHMARK(BM_DepthwiseReference)->Arg(0)->Arg(50);

void BM_DepthwisePackedCmsis(benchmark::State& state) {
  const QDepthwiseConv2D dw = bench_depthwise();
  const auto in = ataman::testing::make_random_input(16 * 16 * 16, 12);
  std::vector<int8_t> out(static_cast<size_t>(dw.positions()) * dw.channels);
  for (auto _ : state) {
    packed_depthwise_conv2d(dw, in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["modeled_mcu_cycles"] =
      static_cast<double>(packed_depthwise_cycles(dw));
}
BENCHMARK(BM_DepthwisePackedCmsis);

void BM_DepthwiseUnpacked(benchmark::State& state) {
  // state.range(0): percent of (channel, tap) operands skipped.
  const QDepthwiseConv2D dw = bench_depthwise();
  const auto skip = bench_depthwise_skip(dw, state.range(0));
  const UnpackedLayer u = UnpackedLayer::build(
      dw, state.range(0) > 0 ? skip.data() : nullptr);
  const auto in = ataman::testing::make_random_input(16 * 16 * 16, 13);
  std::vector<int8_t> out(static_cast<size_t>(dw.positions()) * dw.channels);
  for (auto _ : state) {
    u.run(in, out);
    benchmark::DoNotOptimize(out.data());
  }
  double cycles = 0.0;
  add_step_cycles(cycles, dw, PriceList::kUnpacked,
                  u.static_pairs(), u.static_singles());
  state.counters["modeled_mcu_cycles"] = cycles;
  state.counters["retained_macs"] = static_cast<double>(u.retained_macs());
}
BENCHMARK(BM_DepthwiseUnpacked)->Arg(0)->Arg(25)->Arg(50)->Arg(75);

void BM_AvgPoolReference(benchmark::State& state) {
  QAvgPool pool;
  pool.in_h = 16;
  pool.in_w = 16;
  pool.channels = 16;
  pool.kernel = 2;
  pool.stride = 2;
  const auto in = ataman::testing::make_random_input(16 * 16 * 16, 14);
  std::vector<int8_t> out(8 * 8 * 16);
  for (auto _ : state) {
    avgpool_ref(pool, in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["modeled_mcu_cycles"] =
      static_cast<double>(avgpool_cycles(pool));
}
BENCHMARK(BM_AvgPoolReference);

void BM_PlanarCopyQ15(benchmark::State& state) {
  // One image's planar copy: the zero-padded, channel-planar q15 input
  // every conv-shaped host kernel reads its operands from in place.
  const QConv2D conv = bench_conv();
  const auto in = ataman::testing::make_random_input(16 * 16 * 16, 4);
  const PlanarLayout layout(conv.geom);
  std::vector<int16_t> planes(layout.lane_elems);
  for (auto _ : state) {
    planar_copy_q15(conv.geom, layout, conv.in.zero_point, in.data(), 0,
                    layout.cols, planes.data());
    benchmark::DoNotOptimize(planes.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(in.size()));
}
BENCHMARK(BM_PlanarCopyQ15);

void BM_RequantEpilogue(benchmark::State& state) {
  // The requant epilogue of one 16x16x16 output map of bench_conv(), in
  // the block loop's order (row, block of kPosBlock columns, channel) and
  // with its strided int8 store. state.range(0): 0 = requant_clamp per
  // output, 1 = requant8 per block. items/s counts outputs.
  const QConv2D conv = bench_conv();
  const ConvGeom& g = conv.geom;
  const bool blocked = state.range(0) == 1;
  Rng rng(6);
  // Accumulators of one (block, channel) are contiguous.
  std::vector<int32_t> accs(static_cast<size_t>(g.positions()) * g.out_c);
  for (int32_t& a : accs) a = rng.next_int(-(1 << 16), 1 << 16);
  std::vector<int8_t> out(accs.size());
  const size_t out_c = static_cast<size_t>(g.out_c);
  for (auto _ : state) {
    for (int oy = 0; oy < g.out_h(); ++oy) {
      for (int ox0 = 0; ox0 < g.out_w(); ox0 += kPosBlock) {
        const size_t block = (static_cast<size_t>(oy) * g.out_w() + ox0) *
                             out_c;
        for (size_t oc = 0; oc < out_c; ++oc) {
          const int32_t* sums = accs.data() + block + oc * kPosBlock;
          int8_t* dst = out.data() + block + oc;
          if (blocked) {
            int8_t q[kPosBlock];
            requant8(acc8_load(sums), conv.requant[oc], conv.out.zero_point,
                     conv.act_min, conv.act_max, q);
            for (size_t p = 0; p < kPosBlock; ++p) dst[p * out_c] = q[p];
          } else {
            for (size_t p = 0; p < kPosBlock; ++p) {
              dst[p * out_c] =
                  requant_clamp(sums[p], conv.requant[oc],
                                conv.out.zero_point, conv.act_min,
                                conv.act_max);
            }
          }
        }
      }
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_RequantEpilogue)->Arg(0)->Arg(1);

void BM_SmladSemantics(benchmark::State& state) {
  Rng rng(5);
  std::vector<uint32_t> xs(1024), ys(1024);
  for (size_t i = 0; i < xs.size(); ++i) {
    xs[i] = static_cast<uint32_t>(rng.next_u64());
    ys[i] = static_cast<uint32_t>(rng.next_u64());
  }
  int32_t acc = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < xs.size(); ++i) acc = smlad(xs[i], ys[i], acc);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(xs.size()) * 2);
}
BENCHMARK(BM_SmladSemantics);

void BM_UnpackedBuild(benchmark::State& state) {
  // Offline cost of building (and re-pairing) an unpacked layer — the
  // paper runs this once per DSE config at compile time.
  const QConv2D conv = bench_conv();
  const auto skip = ataman::testing::make_random_skip(conv.geom, 0.5, 99);
  for (auto _ : state) {
    UnpackedLayer u = UnpackedLayer::build(conv, skip.data());
    benchmark::DoNotOptimize(u.channels.data());
  }
}
BENCHMARK(BM_UnpackedBuild);

}  // namespace

BENCHMARK_MAIN();
