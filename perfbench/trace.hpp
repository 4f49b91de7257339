// In-memory span recorder for the traced run.
//
// A span is one call into a layer, recorded by the benchmark around the
// public function it calls (no tracing lives inside the library): name,
// start, end, the span that caused it, and the id of the request or
// frame it belongs to, so every span of one request shares `request`.
// Spans stay in memory and are written once, at exit, as Chrome
// trace-event JSON (chrome://tracing and Perfetto open it). Not
// thread-safe: spans are recorded by the thread that drives the
// workload, after the calls they time have returned.
//
// Self time of a span is its duration minus the part of its interval
// that its child spans cover.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;       // 1-based; 0 is "no span"
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // shared by every span of one request / frame
};

struct SelfTime {
  int64_t count = 0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Records a finished span and returns its id (0 while disabled, so
  // callers can pass it on as a parent unconditionally).
  uint64_t record(std::string name, int64_t start_ns, int64_t end_ns,
                  uint64_t parent = 0, uint64_t request = 0) {
    if (!enabled_) return 0;
    const uint64_t id = spans_.size() + 1;
    spans_.push_back({std::move(name), start_ns, std::max(start_ns, end_ns),
                      id, parent, request});
    return id;
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Per span name: span count and summed self time.
  std::map<std::string, SelfTime> self_times() const {
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans_.size() + 1);
    for (const Span& s : spans_) {
      if (s.parent != 0 && s.parent <= spans_.size())
        children[s.parent].push_back({s.start_ns, s.end_ns});
    }
    std::map<std::string, SelfTime> out;
    for (const Span& s : spans_) {
      auto& kids = children[s.id];
      std::sort(kids.begin(), kids.end());
      int64_t covered = 0;
      int64_t cursor = s.start_ns;
      for (const auto& [b, e] : kids) {
        const int64_t lo = std::max(b, cursor);
        const int64_t hi = std::min(e, s.end_ns);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
      SelfTime& t = out[s.name];
      ++t.count;
      t.self_ms += 1e-6 * static_cast<double>(s.end_ns - s.start_ns - covered);
    }
    return out;
  }

  // Chrome trace-event JSON ("X" complete events, microsecond times
  // relative to the first span). `metadata_json` must be a JSON object.
  std::string chrome_json(const std::string& metadata_json) const {
    int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
    std::string out = "{\"displayTimeUnit\":\"ms\",\"metadata\":";
    out += metadata_json;
    out += ",\"traceEvents\":[";
    char buf[512];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      // One track per request keeps the overlapping spans of concurrent
      // requests from stacking on a single row.
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                    "\"parent\":%llu,\"request\":%llu}}",
                    i == 0 ? "" : ",", s.name.c_str(),
                    static_cast<unsigned long long>(s.request),
                    1e-3 * static_cast<double>(s.start_ns - origin),
                    1e-3 * static_cast<double>(s.end_ns - s.start_ns),
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent),
                    static_cast<unsigned long long>(s.request));
      out += buf;
    }
    out += "]}";
    return out;
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

}  // namespace perfbench
