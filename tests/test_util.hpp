// Shared helpers for the test suite: deterministic random quantized
// layers/models and inputs, so kernel-equivalence and DSE properties can
// be tested across many shapes without training anything.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/quant/qtypes.hpp"

namespace ataman::testing {

inline QuantParams random_act_params(Rng& rng) {
  QuantParams p;
  p.scale = rng.next_uniform(0.01f, 0.2f);
  p.zero_point = rng.next_int(-30, 30);
  return p;
}

inline QConv2D make_random_qconv(const ConvGeom& geom, uint64_t seed,
                                 bool folded_relu = false) {
  Rng rng(seed);
  QConv2D conv;
  conv.geom = geom;
  conv.in = random_act_params(rng);
  conv.out = random_act_params(rng);
  const float w_scale = rng.next_uniform(0.002f, 0.05f);
  conv.weights.resize(static_cast<size_t>(geom.weight_count()));
  for (auto& w : conv.weights)
    w = static_cast<int8_t>(rng.next_int(-127, 127));
  conv.bias.resize(static_cast<size_t>(geom.out_c));
  for (auto& b : conv.bias) b = rng.next_int(-4000, 4000);
  set_pertensor_wscale(conv, w_scale);
  conv.act_min = folded_relu ? conv.out.zero_point : -128;
  conv.act_max = 127;
  return conv;
}

inline QDepthwiseConv2D make_random_qdw(int in_h, int in_w, int channels,
                                        int kernel, int stride, int pad,
                                        uint64_t seed,
                                        bool folded_relu = false) {
  Rng rng(seed);
  QDepthwiseConv2D dw;
  dw.in_h = in_h;
  dw.in_w = in_w;
  dw.channels = channels;
  dw.kernel = kernel;
  dw.stride = stride;
  dw.pad = pad;
  dw.in = random_act_params(rng);
  dw.out = random_act_params(rng);
  const float w_scale = rng.next_uniform(0.002f, 0.05f);
  dw.weights.resize(static_cast<size_t>(dw.weight_count()));
  for (auto& w : dw.weights)
    w = static_cast<int8_t>(rng.next_int(-127, 127));
  dw.bias.resize(static_cast<size_t>(channels));
  for (auto& b : dw.bias) b = rng.next_int(-4000, 4000);
  set_pertensor_wscale(dw, w_scale);
  dw.act_min = folded_relu ? dw.out.zero_point : -128;
  dw.act_max = 127;
  return dw;
}

inline QDense make_random_qdense(int in_dim, int out_dim, uint64_t seed) {
  Rng rng(seed);
  QDense fc;
  fc.in_dim = in_dim;
  fc.out_dim = out_dim;
  fc.in = random_act_params(rng);
  fc.out = random_act_params(rng);
  fc.w_scale = rng.next_uniform(0.002f, 0.05f);
  fc.weights.resize(static_cast<size_t>(in_dim) * out_dim);
  for (auto& w : fc.weights)
    w = static_cast<int8_t>(rng.next_int(-127, 127));
  fc.bias.resize(static_cast<size_t>(out_dim));
  for (auto& b : fc.bias) b = rng.next_int(-4000, 4000);
  fc.requant = quantize_multiplier(
      static_cast<double>(fc.in.scale) * fc.w_scale / fc.out.scale);
  return fc;
}

// Residual requantize-and-add layer over two tensors with params `a` and
// `b`, producing `out` (random output params come from the caller so
// quantization chains stay explicit).
inline QAdd make_qadd(int h, int w, int channels, const QuantParams& a,
                      const QuantParams& b, const QuantParams& out,
                      bool folded_relu = false) {
  QAdd q;
  q.h = h;
  q.w = w;
  q.channels = channels;
  q.in_a = a;
  q.in_b = b;
  q.out = out;
  q.requant_a =
      quantize_multiplier(static_cast<double>(a.scale) / out.scale);
  q.requant_b =
      quantize_multiplier(static_cast<double>(b.scale) / out.scale);
  q.act_min = folded_relu ? q.out.zero_point : -128;
  q.act_max = 127;
  return q;
}

// Spread a layer's per-channel weight scales apart by random factors and
// rebake the requant constants. Turns the uniform (per-tensor style)
// vectors the make_random_* builders produce into genuinely per-channel
// quantization, for fuzzing the per-channel requant paths.
template <typename ConvLike>
inline void spread_wscales(ConvLike& layer, Rng& rng) {
  for (float& s : layer.w_scales) s *= rng.next_uniform(0.25f, 4.0f);
  refresh_requant(layer);
}

// Apply spread_wscales to every conv/depthwise layer of a model.
inline void spread_model_wscales(QModel& m, uint64_t seed) {
  Rng rng(seed);
  for (QLayer& layer : m.layers) {
    if (auto* conv = std::get_if<QConv2D>(&layer)) {
      spread_wscales(*conv, rng);
    } else if (auto* dw = std::get_if<QDepthwiseConv2D>(&layer)) {
      spread_wscales(*dw, rng);
    }
  }
}

// Runs `run(range, out)` once per column range [begin, end) of an
// out_w-wide output map (out_ch channels per position, any number of
// images), with `out` pre-filled with a sentinel. The range's columns
// must equal `want` and every other element must keep the sentinel.
// Returns the first mismatch, or "" when there is none.
template <typename Run>
std::string first_column_range_mismatch(const Run& run,
                                        std::span<const int8_t> want,
                                        int out_w, int out_ch) {
  constexpr int8_t kSentinel = 0x5A;
  std::vector<int8_t> got(want.size());
  for (int begin = 0; begin < out_w; ++begin) {
    for (int end = begin + 1; end <= out_w; ++end) {
      std::fill(got.begin(), got.end(), kSentinel);
      run(ColumnRange{begin, end}, std::span<int8_t>(got));
      for (size_t i = 0; i < got.size(); ++i) {
        const int ox = static_cast<int>((i / static_cast<size_t>(out_ch)) %
                                        static_cast<size_t>(out_w));
        const int8_t expect = ox >= begin && ox < end ? want[i] : kSentinel;
        if (got[i] != expect) {
          return "range [" + std::to_string(begin) + ", " +
                 std::to_string(end) + ") element " + std::to_string(i) +
                 ": got " + std::to_string(got[i]) + ", want " +
                 std::to_string(expect);
        }
      }
    }
  }
  return "";
}

// Calls cache.evaluate_ranges (a PrefixCache) with seeded random
// per-config [begin, end) image ranges — empty, single-image, whole and
// arbitrary ones mixed, so trie nodes where only some siblings cover an
// image are common — over `trials` draws. Each call must write exactly
// the hit flags a full-range pass writes inside the ranges and nothing
// outside them. Returns the first mismatch, or "" when there is none.
template <typename Cache>
std::string first_staggered_range_mismatch(const Cache& cache, uint64_t seed,
                                           int trials) {
  constexpr uint8_t kSentinel = 0xA5;
  const int n_cfg = cache.config_count();
  const int n_img = cache.eval_images();
  const size_t cells = static_cast<size_t>(n_cfg) * n_img;
  std::vector<uint8_t> full(cells);
  cache.evaluate_ranges(std::vector<int>(static_cast<size_t>(n_cfg), 0),
                        std::vector<int>(static_cast<size_t>(n_cfg), n_img),
                        full);
  Rng rng(seed);
  std::vector<int> begin(static_cast<size_t>(n_cfg));
  std::vector<int> end(static_cast<size_t>(n_cfg));
  std::vector<uint8_t> hits(cells);
  for (int t = 0; t < trials; ++t) {
    for (int c = 0; c < n_cfg; ++c) {
      int b = rng.next_int(0, n_img);
      int e = rng.next_int(0, n_img);
      if (b > e) std::swap(b, e);
      switch (rng.next_int(0, 5)) {
        case 0:  // empty
          e = b;
          break;
        case 1:  // one image
          b = std::min(b, n_img - 1);
          e = b + 1;
          break;
        case 2:  // the whole set
          b = 0;
          e = n_img;
          break;
        default:  // arbitrary
          break;
      }
      begin[static_cast<size_t>(c)] = b;
      end[static_cast<size_t>(c)] = e;
    }
    std::fill(hits.begin(), hits.end(), kSentinel);
    cache.evaluate_ranges(begin, end, hits);
    for (int c = 0; c < n_cfg; ++c) {
      for (int i = 0; i < n_img; ++i) {
        const size_t at = static_cast<size_t>(c) * n_img + i;
        const bool inside = i >= begin[static_cast<size_t>(c)] &&
                            i < end[static_cast<size_t>(c)];
        const uint8_t want = inside ? full[at] : kSentinel;
        if (hits[at] != want) {
          return "trial " + std::to_string(t) + " config " +
                 std::to_string(c) + " image " + std::to_string(i) +
                 ": got " + std::to_string(hits[at]) + ", want " +
                 std::to_string(want);
        }
      }
    }
  }
  return "";
}

inline std::vector<int8_t> make_random_input(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int8_t> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<int8_t>(rng.next_int(-128, 127));
  return v;
}

inline std::vector<uint8_t> make_random_image(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<uint8_t>(rng.next_int(0, 255));
  return v;
}

// Extreme operands of the SMLAD tests: weight bytes, q15 activations and
// int32 accumulators. The host block step and the emitted prelude's
// _smlad/_smlabb are both checked on them.
inline constexpr int8_t kWeightExtremes[] = {-128, 127, 0};
inline constexpr int16_t kQ15Extremes[] = {-32768, -32767, -1, 0, 1, 32767};
inline constexpr int32_t kAccExtremes[] = {0, 1, -1, 2147483647,
                                           -2147483647 - 1};

// One multiplier of the requant operand table and the accumulators that
// pin an epilogue to multiply_by_quantized_multiplier under it.
struct RequantOperands {
  QuantizedMultiplier qm;
  std::vector<int32_t> accs;
};

// The output ranges every row of the table is checked over, each with
// every out_zp in -128..127.
inline constexpr std::pair<int32_t, int32_t> kRequantActRanges[] = {
    {-128, 127}, {0, 127}, {-3, 5}};

// The smallest a with saturating_rounding_doubling_high_mul(a, m) >= x,
// for m > 0 and x in int32: ceil((x * 2^31 - 2^30) / m). The high mul
// steps by at most 1 per a, so it equals x there whenever a fits int32.
inline int64_t high_mul_preimage(int64_t x, int64_t m) {
  const int64_t num = x * (int64_t{1} << 31) - (int64_t{1} << 30);
  return num / m + (num % m > 0 ? 1 : 0);
}

// Every shift from -31 to 30, each with mult 0, 2^30, INT32_MAX, three
// seeded ones in quantize_multiplier's range [2^30, 2^31) and one below
// it. Per multiplier the accumulators are INT32_MIN/MAX, 0, +-1, +-2^30,
// seeded random ones, and, with their neighbours:
//   - the exact ties of the doubling high mul, a * m = k * 2^31 +- 2^30;
//   - for shift < 0, accumulators whose high mul x makes the
//     rounding_divide_by_pot remainder equal its threshold, both signs.
// Shared by the requant8 test and the emitted-prelude check.
inline std::vector<RequantOperands> requant_operand_table(uint64_t seed) {
  constexpr int32_t kMin = std::numeric_limits<int32_t>::min();
  constexpr int32_t kMax = std::numeric_limits<int32_t>::max();
  Rng rng(seed);
  std::vector<RequantOperands> table;
  for (int shift = -31; shift <= 30; ++shift) {
    std::vector<int32_t> mults = {0, 1 << 30, kMax};
    for (int i = 0; i < 3; ++i) mults.push_back(rng.next_int(1 << 30, kMax));
    mults.push_back(rng.next_int(1, (1 << 30) - 1));
    for (const int32_t m : mults) {
      RequantOperands row{{m, shift},
                          {kMin, kMax, 0, 1, -1, 1 << 30, -(1 << 30)}};
      const auto add = [&row](int64_t a) {
        if (a >= kMin && a <= kMax) row.accs.push_back(static_cast<int32_t>(a));
      };
      if (m > 0) {
        // a * m = 2^30 (mod 2^31). With m = 2^t * odd, that is
        // a = 2^(30-t) * odd^-1 (mod 2^(31-t)); Newton's step doubles
        // the correct low bits of the inverse (3 to start).
        const int t = std::countr_zero(static_cast<uint32_t>(m));
        const uint32_t odd = static_cast<uint32_t>(m) >> t;
        uint32_t inv = odd;
        for (int i = 0; i < 4; ++i) inv *= 2 - odd * inv;
        const int64_t period = int64_t{1} << (31 - t);
        const auto a0 = static_cast<int64_t>((uint64_t{inv} << (30 - t)) &
                                             static_cast<uint64_t>(period - 1));
        for (int64_t j = -2; j <= 2; ++j)
          for (int d = -1; d <= 1; ++d) add(a0 + j * period + d);
        // Remainder == threshold: x = k * 2^e + 2^(e-1) - 1 for x >= 0,
        // x = -(k + 1) * 2^e + 2^(e-1) for x < 0.
        if (shift < 0) {
          const int64_t unit = int64_t{1} << -shift;
          const int64_t half = unit / 2;
          for (int64_t k = 0; k <= 2; ++k) {
            for (const int64_t x :
                 {k * unit + half - 1, -(k + 1) * unit + half}) {
              for (int64_t y = x - 1; y <= x + 1; ++y) {
                if (y >= kMin && y <= kMax) add(high_mul_preimage(y, m));
              }
            }
          }
        }
      }
      for (int i = 0; i < 16; ++i) add(static_cast<int32_t>(rng.next_u64()));
      for (int i = 0; i < 8; ++i) add(rng.next_int(-(1 << 20), 1 << 20));
      table.push_back(std::move(row));
    }
  }
  return table;
}

// Random skip mask for one conv layer with approximately `density`
// fraction of operands skipped.
inline std::vector<uint8_t> make_random_skip(const ConvGeom& geom,
                                             double density, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> mask(static_cast<size_t>(geom.weight_count()));
  for (auto& m : mask) m = rng.next_bool(density) ? 1 : 0;
  return mask;
}

// A small but structurally complete model: conv -> pool -> conv(relu) ->
// fc, with chained quantization params. in: 12x12x3 u8 image.
inline QModel make_tiny_qmodel(uint64_t seed) {
  Rng rng(seed);
  QModel m;
  m.name = "tiny-test";
  m.topology = "2-1-1";
  m.in_h = 12;
  m.in_w = 12;
  m.in_c = 3;
  m.input = {1.0f / 255.0f, -128};

  ConvGeom g1;
  g1.in_h = 12; g1.in_w = 12; g1.in_c = 3;
  g1.out_c = 6; g1.kernel = 3; g1.stride = 1; g1.pad = 1;
  QConv2D c1 = make_random_qconv(g1, seed * 31 + 1, /*folded_relu=*/true);
  c1.in = m.input;
  refresh_requant(c1);
  c1.act_min = c1.out.zero_point;

  QMaxPool p1;
  p1.in_h = 12; p1.in_w = 12; p1.channels = 6; p1.kernel = 2; p1.stride = 2;

  ConvGeom g2;
  g2.in_h = 6; g2.in_w = 6; g2.in_c = 6;
  g2.out_c = 8; g2.kernel = 3; g2.stride = 1; g2.pad = 1;
  QConv2D c2 = make_random_qconv(g2, seed * 31 + 2, /*folded_relu=*/true);
  c2.in = c1.out;
  refresh_requant(c2);
  c2.act_min = c2.out.zero_point;

  QDense fc = make_random_qdense(6 * 6 * 8, 10, seed * 31 + 3);
  fc.in = c2.out;
  fc.requant = quantize_multiplier(
      static_cast<double>(fc.in.scale) * fc.w_scale / fc.out.scale);

  m.layers.emplace_back(std::move(c1));
  m.layers.emplace_back(p1);
  m.layers.emplace_back(std::move(c2));
  m.layers.emplace_back(std::move(fc));
  return m;
}

// A small residual (DAG) model: conv -> conv -> add(skip from conv1) ->
// conv -> add(skip from the first add) -> fc, all shape-preserving, with
// chained quantization params and explicit layer_inputs. The two nested
// skip edges make the liveness planner keep three tensors live at the
// adds, so DAG peak RAM < sum-of-tensors but > the chain ping-pong pair.
// in: 8x8x4 u8 image.
inline QModel make_residual_qmodel(uint64_t seed) {
  QModel m;
  m.name = "residual-test";
  m.topology = "1-[r2]-1";
  m.in_h = 8;
  m.in_w = 8;
  m.in_c = 4;
  m.input = {1.0f / 255.0f, -128};

  ConvGeom g;
  g.in_h = 8; g.in_w = 8; g.in_c = 4;
  g.out_c = 4; g.kernel = 3; g.stride = 1; g.pad = 1;

  QConv2D c1 = make_random_qconv(g, seed * 61 + 1, /*folded_relu=*/true);
  c1.in = m.input;
  refresh_requant(c1);
  c1.act_min = c1.out.zero_point;

  QConv2D c2 = make_random_qconv(g, seed * 61 + 2, /*folded_relu=*/true);
  c2.in = c1.out;
  refresh_requant(c2);
  c2.act_min = c2.out.zero_point;

  Rng rng(seed * 61 + 3);
  // add1 reads tensor 2 (c2 out) and tensor 1 (c1 out).
  QAdd a1 = make_qadd(8, 8, 4, c2.out, c1.out, random_act_params(rng));

  QConv2D c3 = make_random_qconv(g, seed * 61 + 4, /*folded_relu=*/true);
  c3.in = a1.out;
  refresh_requant(c3);
  c3.act_min = c3.out.zero_point;

  // add2 reads tensor 4 (c3 out) and tensor 3 (add1 out) — nested with
  // the first skip edge.
  QAdd a2 = make_qadd(8, 8, 4, c3.out, a1.out, random_act_params(rng));

  QDense fc = make_random_qdense(8 * 8 * 4, 10, seed * 61 + 5);
  fc.in = a2.out;
  fc.requant = quantize_multiplier(
      static_cast<double>(fc.in.scale) * fc.w_scale / fc.out.scale);

  m.layers.emplace_back(std::move(c1));   // layer 0 -> tensor 1
  m.layers.emplace_back(std::move(c2));   // layer 1 -> tensor 2
  m.layers.emplace_back(std::move(a1));   // layer 2 -> tensor 3
  m.layers.emplace_back(std::move(c3));   // layer 3 -> tensor 4
  m.layers.emplace_back(std::move(a2));   // layer 4 -> tensor 5
  m.layers.emplace_back(std::move(fc));   // layer 5 -> tensor 6
  m.layer_inputs = {{0}, {1}, {2, 1}, {3}, {4, 3}, {5}};
  m.validate_dag();
  return m;
}

// VWW-shaped fixture: the depthwise backbone + binary head of the vww
// zoo workload at test scale. conv -> dw -> avgpool -> fc(2), with
// chained quantization params. in: 8x8x3 u8 image.
inline QModel make_tiny_vww_qmodel(uint64_t seed) {
  QModel m;
  m.name = "tiny-vww-test";
  m.topology = "1+1ds-1";
  m.in_h = 8;
  m.in_w = 8;
  m.in_c = 3;
  m.input = {1.0f / 255.0f, -128};

  ConvGeom g;
  g.in_h = 8; g.in_w = 8; g.in_c = 3;
  g.out_c = 6; g.kernel = 3; g.stride = 1; g.pad = 1;
  QConv2D c1 = make_random_qconv(g, seed * 71 + 1, /*folded_relu=*/true);
  c1.in = m.input;
  refresh_requant(c1);
  c1.act_min = c1.out.zero_point;

  QDepthwiseConv2D dw = make_random_qdw(8, 8, 6, /*kernel=*/3, /*stride=*/1,
                                        /*pad=*/1, seed * 71 + 2,
                                        /*folded_relu=*/true);
  dw.in = c1.out;
  refresh_requant(dw);
  dw.act_min = dw.out.zero_point;

  QAvgPool pool;
  pool.in_h = 8; pool.in_w = 8; pool.channels = 6;
  pool.kernel = 2; pool.stride = 2;

  QDense fc = make_random_qdense(4 * 4 * 6, 2, seed * 71 + 3);
  fc.in = dw.out;
  fc.requant = quantize_multiplier(
      static_cast<double>(fc.in.scale) * fc.w_scale / fc.out.scale);

  m.layers.emplace_back(std::move(c1));
  m.layers.emplace_back(std::move(dw));
  m.layers.emplace_back(pool);
  m.layers.emplace_back(std::move(fc));
  return m;
}

// Autoencoder-shaped fixture with a scored head: dense-only bottleneck
// whose final layer reconstructs the input (out_dim == in pixels), head
// = kScore with a fixed threshold. Zero approximable layers — the DSE
// degenerate path. in: 4x4x3 u8 image.
inline QModel make_tiny_scored_qmodel(uint64_t seed,
                                      float threshold = 0.02f) {
  QModel m;
  m.name = "tiny-ae-test";
  m.topology = "d16-d48";
  m.in_h = 4;
  m.in_w = 4;
  m.in_c = 3;
  m.input = {1.0f / 255.0f, -128};
  m.head = TaskHead::kScore;
  m.score_threshold = threshold;

  QDense enc = make_random_qdense(48, 16, seed * 91 + 1);
  enc.in = m.input;
  enc.requant = quantize_multiplier(
      static_cast<double>(enc.in.scale) * enc.w_scale / enc.out.scale);
  enc.act_min = enc.out.zero_point;  // folded relu

  QDense dec = make_random_qdense(16, 48, seed * 91 + 2);
  dec.in = enc.out;
  dec.requant = quantize_multiplier(
      static_cast<double>(dec.in.scale) * dec.w_scale / dec.out.scale);

  m.layers.emplace_back(std::move(enc));
  m.layers.emplace_back(std::move(dec));
  return m;
}

}  // namespace ataman::testing
