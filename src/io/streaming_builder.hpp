// Budgeted incremental CSR construction — the assembly half of .mtx
// ingest.
//
// Entries arrive in any order (typically chunk by chunk from
// io/mm_stream) and are staged in memory; when staging reaches the
// configured budget it is stably sorted by (row, col) and spilled to a
// temporary run file. finish() merges the runs into the final CSR.
//
// Bitwise identity: CsrMatrix::from_coo stable-sorts, so duplicate
// (row, col) entries sum left to right in *arrival* order. The builder
// reproduces that exactly: each run is an arrival-contiguous window of
// the input, stably sorted (so a run's duplicates stay in arrival
// order, uncombined); the k-way merge breaks (row, col) ties by run
// index and accumulates one entry at a time in pop order — which is the
// global arrival order of every duplicate group. The output therefore
// matches from_coo on the same entry sequence bit for bit, whatever the
// budget, chunking, or number of spills.
//
// Fault story: each spill write carries the io.spill fail point — an
// injected failure is retried once, and a second failure degrades that
// run to staying in memory (budget exceeded rather than data lost).
// Run read-back during the merge goes through ByteReader and carries
// io.read with its retry/degrade semantics.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace rrspmm::io {

struct StreamingBuildConfig {
  /// Staging budget: a spill triggers when buffered entries reach this
  /// many bytes. Peak memory is budget + O(one merge buffer per run);
  /// the sort's transient scratch is counted against the same slack.
  std::size_t budget_bytes = 64ull << 20;
  /// Directory for spill runs; empty uses the system temp directory.
  std::string spill_dir;
};

class StreamingCsrBuilder {
 public:
  StreamingCsrBuilder(index_t rows, index_t cols, StreamingBuildConfig cfg = {});
  /// Removes any spill files still on disk.
  ~StreamingCsrBuilder();

  StreamingCsrBuilder(const StreamingCsrBuilder&) = delete;
  StreamingCsrBuilder& operator=(const StreamingCsrBuilder&) = delete;

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }

  /// Appends one entry (bounds-checked eagerly, like CooMatrix::add).
  void add(index_t row, index_t col, value_t value);
  /// Appends a batch, preserving its order.
  void add_entries(std::span<const sparse::CooEntry> entries);

  /// Merges all runs into the resident CSR. The builder is consumed.
  sparse::CsrMatrix finish();

  offset_t entries_added() const { return entries_added_; }
  /// High-water mark of staged bytes (staging vector plus any runs that
  /// degraded to memory) — what the ingest bench gates against the
  /// budget.
  std::size_t peak_staging_bytes() const { return peak_bytes_; }
  int spilled_runs() const { return spilled_runs_; }
  /// Spills that failed twice under io.spill and stayed in memory.
  int degraded_runs() const { return degraded_runs_; }

 private:
  struct Run {
    std::string path;                   ///< empty for an in-memory run
    std::vector<sparse::CooEntry> mem;  ///< degraded (or final) run data
    offset_t count = 0;
  };

  void spill();
  void note_bytes();

  index_t rows_ = 0;
  index_t cols_ = 0;
  StreamingBuildConfig cfg_;
  std::size_t budget_entries_ = 0;
  std::vector<sparse::CooEntry> staging_;
  std::vector<Run> runs_;
  offset_t entries_added_ = 0;
  std::size_t mem_run_bytes_ = 0;
  std::size_t peak_bytes_ = 0;
  int spilled_runs_ = 0;
  int degraded_runs_ = 0;
  bool finished_ = false;
};

}  // namespace rrspmm::io
