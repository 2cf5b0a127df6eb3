// Offline seeding of the router's cost table from the BENCH_*.json
// artifacts the CI bench-smoke job uploads.
//
// The bench files carry measured latencies of exactly the alternatives
// the router chooses between (generic vs specialized kernels, hash vs
// sort SpGEMM accumulators, serving latency), so a
// freshly deployed router does not start cold: the loader turns them
// into fingerprint-agnostic priors that decide() consults for arms with
// no per-matrix observations yet.
//
// The parser is a deliberately small recursive-descent JSON reader —
// just enough for the bench writers' output (bench_common.hpp) — so the
// library picks up no dependency for this.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rrspmm::router {

class Router;

/// Minimal JSON value tree. Numbers are doubles; object member order is
/// preserved (irrelevant here, cheap to keep).
struct JsonValue {
  enum class Type { null, boolean, number, string, array, object };
  Type type = Type::null;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;

  const JsonValue* find(std::string_view key) const;
  double number_or(double dflt) const { return type == Type::number ? num : dflt; }
  const std::string* string_or_null() const { return type == Type::string ? &str : nullptr; }
};

/// Parses one JSON document; throws std::runtime_error on malformed
/// input (with a byte offset in the message).
JsonValue parse_json(std::string_view text);

/// Dispatches on the payload's "bench" field and installs priors into
/// `r`. Unknown bench names install nothing. Returns priors installed.
std::size_t calibrate_from_json(Router& r, const JsonValue& doc);

}  // namespace rrspmm::router
