// Ingestion bench: MB/s of the chunked Matrix Market reader into the
// budgeted streaming builder, swept over chunk sizes from 4 KiB to
// whole-file, on matrices whose COO footprint is several times the
// staging budget, and the whole-matrix .rrsb load time against the .mtx
// parse time of the same matrix. Prints fixed-width tables plus
// PASS/FAIL checks and writes BENCH_ingest.json.
//
// Checks (all host-independent, so nothing is gated on core count):
//   * bitwise identity — at every chunk size the streamed CSR must equal
//     the reference parser's result (tests/mm_reference.hpp, which
//     shares no code with the library's reader), and so must the
//     .mtx -> .rrsb -> CSR round trip.
//   * memory budget — peak_staging_bytes stays within the configured
//     budget plus one entry of slack, on inputs >= 4x the budget, with
//     no degraded (in-memory) runs.
// The .rrsb-vs-.mtx load times are reported only: each is the median of
// kLoadReps interleaved calls, the .mtx side at the reader's defaults.
//
//   RRSPMM_CORPUS_N — number of matrices (default 2, capped at 4)
//   RRSPMM_SCALE    — linear multiplier on matrix rows (default 1)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "harness/render.hpp"
#include "io/mm_stream.hpp"
#include "io/rrsb.hpp"
#include "mm_reference.hpp"
#include "sparse/io_mm.hpp"
#include "synth/corpus.hpp"
#include "synth/generators.hpp"

namespace rrspmm {
namespace {

// 4 KiB (forced-minimum window), page-ish, the default, whole-file.
constexpr std::size_t kChunkBytes[] = {4096, 65536, 1u << 20, ~std::size_t{0} >> 1};
constexpr std::size_t kBudget = 1u << 19;  // 512 KiB staging budget
constexpr int kLoadReps = 5;

struct Subject {
  std::string name;
  std::string path;        ///< .mtx on disk
  sparse::CsrMatrix resident;
  std::uint64_t file_bytes = 0;
};

std::vector<Subject> build_subjects() {
  const synth::CorpusConfig cc = synth::corpus_config_from_env();
  int count = cc.count;
  if (const char* env = std::getenv("RRSPMM_CORPUS_N"); env == nullptr) count = 2;
  if (count > 4) count = 4;
  if (count < 1) count = 1;

  const std::string dir = std::filesystem::temp_directory_path().string();
  std::vector<Subject> subjects;
  for (int i = 0; i < count; ++i) {
    // ~720K entries at scale 1: COO footprint ~8.6 MB, 16x the budget.
    const auto rows = static_cast<index_t>(static_cast<double>(24000 + 8000 * i) * cc.scale);
    const offset_t nnz = static_cast<offset_t>(rows) * 30;
    Subject s;
    s.name = "er_" + std::to_string(i);
    s.path = dir + "/rrspmm_bench_ingest_" + std::to_string(i) + ".mtx";
    sparse::write_matrix_market(
        synth::erdos_renyi(rows, rows / 2, nnz, cc.seed + static_cast<std::uint64_t>(i)), s.path);
    s.file_bytes = std::filesystem::file_size(s.path);
    // The identity baseline is the reference parser on the same file —
    // the text round trip itself is lossy at the last float digit.
    s.resident = test::reference::read_matrix_market(s.path);
    subjects.push_back(std::move(s));
  }
  return subjects;
}

struct Point {
  std::string matrix;
  std::size_t chunk_bytes = 0;
  double wall_ms = 0.0;
  double mb_per_s = 0.0;
  int spilled_runs = 0;
  std::size_t peak_bytes = 0;
  bool identical = true;
  bool within_budget = true;
};

/// Whole-matrix load time of one matrix in both formats (report-only).
struct LoadRow {
  std::string matrix;
  double mtx_ms = 0.0;
  double rrsb_ms = 0.0;
};

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::string to_json(const std::vector<Point>& points, const std::vector<LoadRow>& loads) {
  bench::JsonWriter js;
  js.obj_begin()
      .field("bench", "ingest_scaling")
      .field("budget_bytes", kBudget)
      .key("results")
      .arr_begin();
  for (const Point& p : points) {
    js.obj_begin()
        .field("matrix", p.matrix)
        .field("chunk_bytes", p.chunk_bytes)
        .field("wall_ms", p.wall_ms)
        .field("mb_per_s", p.mb_per_s)
        .field("spilled_runs", p.spilled_runs)
        .field("peak_bytes", p.peak_bytes)
        .field("identical", p.identical)
        .field("within_budget", p.within_budget)
        .obj_end();
  }
  js.arr_end().key("load").arr_begin();
  for (const LoadRow& l : loads) {
    js.obj_begin()
        .field("matrix", l.matrix)
        .field("mtx_parse_ms", l.mtx_ms)
        .field("rrsb_load_ms", l.rrsb_ms)
        .obj_end();
  }
  js.arr_end().obj_end();
  return js.str();
}

}  // namespace
}  // namespace rrspmm

int main() {
  using namespace rrspmm;
  using Clock = std::chrono::steady_clock;

  const auto subjects = build_subjects();
  std::printf("== ingest scaling: %zu matrices, %zu KiB staging budget ==\n", subjects.size(),
              kBudget / 1024);

  int failures = 0;
  std::vector<Point> points;
  std::vector<LoadRow> loads;
  for (const Subject& s : subjects) {
    for (const std::size_t chunk : kChunkBytes) {
      // The bench measures the full out-of-core pipeline: chunked parse
      // into the budgeted builder, spill runs on disk, k-way merge out.
      io::StreamingBuildConfig cfg;
      cfg.budget_bytes = kBudget;
      io::MmChunkReader reader(s.path, chunk);
      io::StreamingCsrBuilder builder(reader.header().rows, reader.header().cols, cfg);
      const auto t0 = Clock::now();
      std::vector<sparse::CooEntry> batch;
      while (reader.next_chunk(batch)) builder.add_entries(batch);
      const int spilled = builder.spilled_runs();
      const std::size_t peak = builder.peak_staging_bytes();
      const int degraded = builder.degraded_runs();
      const sparse::CsrMatrix streamed = builder.finish();
      const double ms =
          std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(Clock::now() - t0)
              .count();

      Point p;
      p.matrix = s.name;
      p.chunk_bytes = chunk;
      p.wall_ms = ms;
      p.mb_per_s = ms > 0.0 ? static_cast<double>(s.file_bytes) / 1048576.0 / (ms / 1000.0) : 0.0;
      p.spilled_runs = spilled;
      p.peak_bytes = peak;
      p.identical = test::reference::bitwise_equal(streamed, s.resident);
      p.within_budget = peak <= kBudget + sizeof(sparse::CooEntry) && degraded == 0;
      if (!p.identical) {
        ++failures;
        std::printf("FAIL: %s chunk=%zu streamed CSR differs from resident reader\n",
                    s.name.c_str(), chunk);
      }
      if (!p.within_budget) {
        ++failures;
        std::printf("FAIL: %s chunk=%zu peak staging %zu bytes exceeds budget %zu (+slack)\n",
                    s.name.c_str(), chunk, peak, kBudget);
      }
      points.push_back(std::move(p));
    }

    // End-to-end .mtx -> .rrsb -> CSR identity at the default chunking.
    const std::string rrsb_path = s.path + ".rrsb";
    io::StreamingBuildConfig cfg;
    cfg.budget_bytes = kBudget;
    io::write_rrsb(io::read_matrix_market_streamed(s.path, cfg), rrsb_path);
    const bool ok = test::reference::bitwise_equal(io::RrsbReader(rrsb_path).read(), s.resident);
    if (!ok) ++failures;
    std::printf("%s: %s .mtx -> .rrsb -> CSR round trip identical\n", ok ? "PASS" : "FAIL",
                s.name.c_str());

    // Whole-matrix load: .mtx parse at the reader's defaults against a
    // .rrsb read, interleaved call by call.
    const auto time_ms = [](const auto& load) {
      const auto t0 = Clock::now();
      const sparse::CsrMatrix m = load();  // freed after the clock stops
      const auto t1 = Clock::now();
      return std::chrono::duration<double, std::milli>(t1 - t0).count();
    };
    std::vector<double> mtx_ms, rrsb_ms;
    for (int rep = 0; rep < kLoadReps; ++rep) {
      mtx_ms.push_back(time_ms([&] { return io::read_matrix_market_streamed(s.path); }));
      rrsb_ms.push_back(time_ms([&] { return io::RrsbReader(rrsb_path).read(); }));
    }
    loads.push_back({s.name, median_of(mtx_ms), median_of(rrsb_ms)});
    std::remove(rrsb_path.c_str());
  }

  std::vector<std::vector<std::string>> rows;
  for (const Point& p : points) {
    rows.push_back({p.matrix,
                    p.chunk_bytes > (1u << 20) ? "whole" : std::to_string(p.chunk_bytes / 1024),
                    harness::fmt(p.wall_ms, 2), harness::fmt(p.mb_per_s, 1),
                    std::to_string(p.spilled_runs), std::to_string(p.peak_bytes / 1024),
                    p.identical ? "yes" : "NO", p.within_budget ? "yes" : "NO"});
  }
  std::printf("%s\n",
              harness::render_table({"matrix", "chunk_KiB", "wall_ms", "MB_per_s", "spills",
                                     "peak_KiB", "identical", "in_budget"},
                                    rows)
                  .c_str());

  std::vector<std::vector<std::string>> load_rows;
  for (const LoadRow& l : loads) {
    load_rows.push_back({l.matrix, harness::fmt(l.mtx_ms, 2), harness::fmt(l.rrsb_ms, 2),
                         harness::fmt(l.rrsb_ms > 0.0 ? l.mtx_ms / l.rrsb_ms : 0.0, 1)});
  }
  std::printf("whole-matrix load, median of %d (report-only):\n%s\n", kLoadReps,
              harness::render_table({"matrix", "mtx_parse_ms", "rrsb_load_ms", "mtx_over_rrsb"},
                                    load_rows)
                  .c_str());

  bench::write_bench_json("BENCH_ingest.json", to_json(points, loads));

  for (const Subject& s : subjects) std::remove(s.path.c_str());

  if (failures > 0) {
    std::printf("%d ingest check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("all ingest checks passed\n");
  return 0;
}
