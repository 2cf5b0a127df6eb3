// Shared scaffolding for the per-table/per-figure bench binaries.
//
// Every binary runs (or reloads from cache) the same corpus experiment,
// then renders one of the paper's tables or figures from the records.
// Corpus size honours RRSPMM_CORPUS_N / RRSPMM_SCALE / RRSPMM_SEED; the
// paper evaluated 1084 matrices, the default here is 48 (sized for a
// single-core container) with identical structure.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "harness/cache.hpp"
#include "harness/experiment.hpp"
#include "harness/render.hpp"
#include "harness/stats.hpp"

namespace rrspmm::bench {

using harness::MatrixRecord;

/// Subset of records whose §4 heuristics fired at least one reordering
/// round — the paper's "416 of 1084 matrices that need row-reordering".
inline std::vector<const MatrixRecord*> needs_reordering(
    const std::vector<MatrixRecord>& records) {
  std::vector<const MatrixRecord*> out;
  for (const MatrixRecord& r : records) {
    if (r.needs_reordering()) out.push_back(&r);
  }
  return out;
}

/// Speedup of ASpT-RR over the faster of cuSPARSE(row-wise) and ASpT-NR
/// for SpMM at K (the paper's Table 1 metric).
inline double spmm_speedup_vs_best(const MatrixRecord& r, index_t k) {
  const auto& t = r.spmm_at(k);
  return std::min(t.rowwise.time_s, t.aspt_nr.time_s) / t.aspt_rr.time_s;
}

/// Speedup of ASpT-RR over ASpT-NR for SDDMM at K (Table 2 metric).
inline double sddmm_speedup_vs_nr(const MatrixRecord& r, index_t k) {
  const auto& t = r.sddmm_at(k);
  return t.aspt_nr.time_s / t.aspt_rr.time_s;
}

inline void print_summary_line(const std::vector<double>& speedups, const char* label) {
  std::printf("%s: n=%zu geomean=%.2fx median=%.2fx max=%.2fx min=%.2fx\n", label,
              speedups.size(), harness::geomean(speedups), harness::median(speedups),
              harness::max_of(speedups), harness::min_of(speedups));
}

inline void print_experiment_header(const char* what, const std::vector<MatrixRecord>& records) {
  std::printf("== %s ==\n", what);
  std::printf("corpus: %zu matrices (paper: 1084); %zu need row-reordering (paper: 416)\n",
              records.size(), needs_reordering(records).size());
}

/// Minimal streaming JSON writer for the BENCH_*.json payloads every
/// scaling bench emits. Handles commas and nesting, so a bench declares
/// its fields instead of hand-assembling separators:
///
///   JsonWriter js;
///   js.obj_begin().field("bench", "kernel_scaling").key("results").arr_begin();
///   for (...) js.obj_begin().field("k", k).field("wall_ms", ms).obj_end();
///   js.arr_end().obj_end();
///   write_bench_json("BENCH_kernels.json", js.str());
///
/// Keys and string values are emitted verbatim between quotes — callers
/// pass identifier-like names only (every bench does), not arbitrary
/// text needing escapes.
class JsonWriter {
 public:
  JsonWriter() { os_.precision(9); }

  JsonWriter& obj_begin() {
    comma();
    os_ << '{';
    first_.push_back(true);
    return *this;
  }
  JsonWriter& obj_end() {
    first_.pop_back();
    os_ << '}';
    return *this;
  }
  JsonWriter& arr_begin() {
    comma();
    os_ << '[';
    first_.push_back(true);
    return *this;
  }
  JsonWriter& arr_end() {
    first_.pop_back();
    os_ << ']';
    return *this;
  }

  /// Emits the key (with any needed comma); follow with value()/arr_begin().
  JsonWriter& key(std::string_view k) {
    comma();
    os_ << '"' << k << "\":";
    pending_value_ = true;
    return *this;
  }

  JsonWriter& value(std::string_view v) {
    comma();
    os_ << '"' << v << '"';
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(bool v) {
    comma();
    os_ << (v ? "true" : "false");
    return *this;
  }
  JsonWriter& value(double v) {
    comma();
    os_ << v;
    return *this;
  }
  /// One template instead of per-width overloads: int64_t/size_t/long
  /// alias each other differently across platforms.
  template <class T, std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>, int> = 0>
  JsonWriter& value(T v) {
    comma();
    if constexpr (std::is_signed_v<T>) {
      os_ << static_cast<long long>(v);
    } else {
      os_ << static_cast<unsigned long long>(v);
    }
    return *this;
  }

  template <class T>
  JsonWriter& field(std::string_view k, T v) {
    return key(k).value(v);
  }

  std::string str() const { return os_.str(); }

 private:
  void comma() {
    if (pending_value_) {
      pending_value_ = false;  // the separator was written with the key
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) os_ << ',';
      first_.back() = false;
    }
  }

  std::ostringstream os_;
  std::vector<bool> first_;   ///< per nesting level: no element emitted yet
  bool pending_value_ = false;
};

/// Writes one BENCH_*.json artifact (the files the CI bench-smoke job
/// uploads) to the current directory, with the customary "wrote" line on
/// stdout.
inline void write_bench_json(const std::string& file, const std::string& json) {
  std::ofstream out(file, std::ios::trunc);
  out << json << '\n';
  std::printf("wrote %s\n", file.c_str());
}

/// Writes the figure/table's underlying data as CSV when the user sets
/// RRSPMM_CSV_DIR (for external plotting); otherwise a no-op.
inline void maybe_write_csv(const std::string& name, const std::vector<std::string>& header,
                            const std::vector<std::vector<std::string>>& rows) {
  const char* dir = std::getenv("RRSPMM_CSV_DIR");
  if (!dir) return;
  const std::string path = std::string(dir) + "/" + name + ".csv";
  harness::write_csv(path, header, rows);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

}  // namespace rrspmm::bench
