// The benchmark's own checks: percentiles, the ladder search, arrivals,
// trace-event JSON validity and self time, and the allocation counter.
// Exits non-zero on the first failed check.
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "loadgen.hpp"
#include "src/common/json_lite.hpp"
#include "src/common/metrics.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

// The latency tails use the library's nearest-rank percentile, with a
// failed operation recorded as infinitely late.
void test_percentiles() {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted input
  expect(ataman::percentile(v, 50.0) == 500.0,
         "nearest-rank p50 of 1..1000 is 500");
  expect(ataman::percentile(v, 99.0) == 990.0,
         "nearest-rank p99 of 1..1000 is 990");
  // 1,000 samples leave ten beyond p99: ten failures stay above it, the
  // eleventh reaches it.
  v.assign(1000, 1.0);
  for (int i = 0; i < 10; ++i) v[i] = std::numeric_limits<double>::infinity();
  expect(ataman::percentile(v, 99.0) == 1.0,
         "ten failures in 1,000 sit above p99");
  v[10] = v[0];
  expect(std::isinf(ataman::percentile(v, 99.0)),
         "eleven failures in 1,000 reach p99");
}

void test_ladder() {
  const perfbench::RateLadder ladder{500.0, 1.04, 90};
  expect(std::abs(ladder.rate(1) / ladder.rate(0) - 1.04) < 1e-12,
         "ladder steps are 4%");
  for (int threshold = -1; threshold < 90; ++threshold) {
    int calls = 0;
    const int found = perfbench::ladder_search(90, [&](int k) {
      ++calls;
      return k <= threshold;
    });
    expect(found == threshold,
           "ladder finds threshold " + std::to_string(threshold));
    expect(calls <= 8, "ladder bisects in at most ceil(log2(90)) + 1 probes");
  }
  expect(perfbench::ladder_search(1, [](int) { return true; }) == 0,
         "one-step ladder that passes");
}

void test_arrivals() {
  const auto a = perfbench::poisson_arrivals(2000.0, 5.0, 7);
  const auto b = perfbench::poisson_arrivals(2000.0, 5.0, 7);
  const auto c = perfbench::poisson_arrivals(2000.0, 5.0, 8);
  expect(a == b, "arrivals depend on the seed alone");
  expect(a != c, "different seeds give different arrivals");
  expect(std::abs(static_cast<double>(a.size()) / 10000.0 - 1.0) < 0.05,
         "arrival count within 5% of rate x seconds");
  bool increasing = true;
  for (size_t i = 1; i < a.size(); ++i) increasing &= a[i] > a[i - 1];
  expect(increasing && a.back() < 5.0, "arrivals increase inside the window");
}

void test_trace() {
  perfbench::Tracer t;
  expect(t.record("off", 0, 1) == 0, "a disabled tracer records nothing");
  t.enable(true);
  const uint64_t root = t.record("request", 1000, 101000, 0, 1);
  t.record("serve.queue", 11000, 31000, root, 1);
  t.record("serve.run", 21000, 51000, root, 1);  // overlaps the queue span
  t.record("loadgen.lag", 61000, 71000, root, 1);
  t.record("other", 0, 5000, 0, 2);
  const auto self = t.self_times();
  expect(self.at("request").count == 1, "one request span");
  expect(std::abs(self.at("request").self_ms - 0.05) < 1e-12,
         "self time subtracts the union of child intervals");
  expect(std::abs(self.at("serve.run").self_ms - 0.03) < 1e-12,
         "a leaf span's self time is its duration");

  const ataman::Json j = ataman::Json::parse(t.chrome_json("{\"seed\":1}"));
  expect(j.at("metadata").at("seed").as_int() == 1, "metadata is embedded");
  const auto& events = j.at("traceEvents").as_array();
  expect(events.size() == 5, "one event per span");
  std::set<int64_t> ids;
  for (const auto& e : events) ids.insert(e.at("args").at("id").as_int());
  for (const auto& e : events) {
    expect(e.at("ph").as_string() == "X", "complete events");
    expect(e.at("ts").as_number() >= 0.0 && e.at("dur").as_number() >= 0.0,
           "non-negative times");
    const int64_t parent = e.at("args").at("parent").as_int();
    expect(parent == 0 || ids.count(parent) == 1, "parents exist");
  }
}

void test_alloc_counter() {
  const int64_t before = perfbench::thread_allocs();
  auto off = std::make_unique<int>(1);
  expect(perfbench::thread_allocs() == before, "no counting while off");
  perfbench::set_alloc_counting(true);
  auto on = std::make_unique<int>(2);
  perfbench::set_alloc_counting(false);
  expect(perfbench::thread_allocs() == before + 1, "one allocation counted");
}

}  // namespace

int main() {
  test_percentiles();
  test_ladder();
  test_arrivals();
  test_trace();
  test_alloc_counter();
  if (failures == 0) std::printf("perfbench_tests: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
