// The benchmark's result line: one JSON object, printed last on stdout,
// with exactly the keys correct / attempted / failed / metrics.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Serialises the result line. Non-finite values have no JSON spelling,
/// so they are rejected instead of printed.
inline std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                               const std::vector<Metric>& metrics) {
  rrspmm::bench::JsonWriter js;
  js.obj_begin()
      .field("correct", correct)
      .field("attempted", attempted)
      .field("failed", failed)
      .key("metrics")
      .obj_begin();
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) throw std::domain_error("non-finite metric: " + m.name);
    js.key(m.name)
        .obj_begin()
        .field("value", m.value)
        .field("unit", std::string_view(m.unit))
        .obj_end();
  }
  js.obj_end().obj_end();
  return js.str();
}

}  // namespace perfbench
