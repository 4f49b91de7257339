// Pure pieces of the open-loop load generator, kept header-only so the
// benchmark's own tests (tests.cpp) exercise exactly what runs.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/rng.hpp"

namespace perfbench {

// Poisson arrivals: due offsets (seconds from the start) of an open loop
// at `rate` requests/s over `seconds`, from `seed` alone.
inline std::vector<double> poisson_arrivals(double rate, double seconds,
                                            uint64_t seed) {
  ataman::Rng rng(seed);
  std::vector<double> due;
  double t = 0.0;
  for (;;) {
    // next_double() is in [0, 1): 1 - u is in (0, 1], so log() is finite.
    t += -std::log(1.0 - rng.next_double()) / rate;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

// Fixed geometric rate ladder: rate(k) = base * ratio^k, k in [0, steps).
struct RateLadder {
  double base = 1.0;
  double ratio = 1.04;
  int steps = 1;
  double rate(int k) const { return base * std::pow(ratio, k); }
};

// Highest k in [0, steps) with passes(k), by bisection over a ladder on
// which passing is monotone (every rate below a passing one passes).
// Returns -1 when even step 0 fails. Calls passes() at most
// ceil(log2(steps)) + 1 times.
inline int ladder_search(int steps, const std::function<bool(int)>& passes) {
  int lo = -1;     // highest step known to pass
  int hi = steps;  // lowest step known to fail
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (passes(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace perfbench
