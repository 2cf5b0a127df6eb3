// Benchmark-side span recorder: one span per layer call, timed from
// outside the library with steady_clock, kept in memory and written once
// as Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
//
// Spans carry a parent span id and a request id, so the per-layer table
// can report self time: a span's duration minus the part of its interval
// that its children cover.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::string cat;
  double t0_us = 0.0;  ///< start, µs since the tracer's origin
  double t1_us = 0.0;  ///< end
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::int64_t req = -1;     ///< request id, -1 outside the serving loop
  int lane = 1;              ///< trace-viewer row (tid): 1 = main, 2+ = request slots
};

class Tracer {
 public:
  explicit Tracer(bool enabled, Clock::time_point origin = Clock::now())
      : enabled_(enabled), origin_(origin) {}

  bool enabled() const { return enabled_; }

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }
  double to_us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  /// Records a finished span; returns its id (0 when disabled).
  std::uint64_t add(std::string name, std::string cat, double t0_us, double t1_us,
                    std::uint64_t parent = 0, std::int64_t req = -1, int lane = 1) {
    if (!enabled_) return 0;
    const std::uint64_t id = ++next_id_;
    spans_.push_back(Span{std::move(name), std::move(cat), t0_us, t1_us, id, parent, req, lane});
    return id;
  }

  /// Opens a span whose end is filled in by close(); children recorded in
  /// between can name it as their parent.
  std::uint64_t open(std::string name, std::string cat, std::uint64_t parent = 0,
                     std::int64_t req = -1) {
    if (!enabled_) return 0;
    const double t = now_us();
    return add(std::move(name), std::move(cat), t, t, parent, req);
  }
  void close(std::uint64_t id) {
    if (!enabled_ || id == 0) return;
    spans_[static_cast<std::size_t>(id - 1)].t1_us = now_us();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;  ///< spans_[id - 1] is span id
  std::uint64_t next_id_ = 0;
};

/// Per-name aggregate of a span set.
struct SelfTimeRow {
  std::string name;
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Length of the union of [a, b) intervals clipped to [lo, hi).
inline double covered_us(std::vector<std::pair<double, double>> iv, double lo, double hi) {
  std::sort(iv.begin(), iv.end());
  double covered = 0.0;
  double cur_lo = 0.0, cur_hi = 0.0;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return covered;
}

/// Per-name count, total and self time, in first-seen order.
inline std::vector<SelfTimeRow> self_times(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.t0_us, s.t1_us);
  }
  std::vector<SelfTimeRow> rows;
  std::map<std::string, std::size_t> index;
  for (const Span& s : spans) {
    const double dur = s.t1_us - s.t0_us;
    const auto it = children.find(s.id);
    const double kids = it == children.end() ? 0.0 : covered_us(it->second, s.t0_us, s.t1_us);
    auto [pos, inserted] = index.emplace(s.name, rows.size());
    if (inserted) rows.push_back(SelfTimeRow{s.name});
    SelfTimeRow& r = rows[pos->second];
    ++r.count;
    r.total_ms += dur / 1000.0;
    r.self_ms += (dur - kids) / 1000.0;
  }
  return rows;
}

/// Chrome trace-event JSON: one complete ("X") event per span, args
/// carrying the span id, parent and request id.
inline std::string chrome_trace_json(const std::vector<Span>& spans) {
  rrspmm::bench::JsonWriter js;
  js.obj_begin().field("displayTimeUnit", "ms").key("traceEvents").arr_begin();
  for (const Span& s : spans) {
    js.obj_begin()
        .field("name", std::string_view(s.name))
        .field("cat", std::string_view(s.cat))
        .field("ph", "X")
        .field("ts", s.t0_us)
        .field("dur", s.t1_us - s.t0_us)
        .field("pid", 1)
        .field("tid", s.lane)
        .key("args")
        .obj_begin()
        .field("id", s.id)
        .field("parent", s.parent)
        .field("req", s.req)
        .obj_end()
        .obj_end();
  }
  js.arr_end().obj_end();
  return js.str();
}

}  // namespace perfbench
