#include "io/streaming_builder.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <type_traits>

#include "fault/fault.hpp"
#include "io/byte_reader.hpp"

namespace rrspmm::io {

using sparse::CooEntry;
using sparse::invalid_matrix;
using sparse::io_error;

namespace {

// Spill records are raw CooEntry bytes; the layout must be padding-free
// for the file format to be well-defined.
static_assert(sizeof(CooEntry) == 12 && std::is_trivially_copyable_v<CooEntry>);

bool by_row_col(const CooEntry& a, const CooEntry& b) {
  if (a.row != b.row) return a.row < b.row;
  return a.col < b.col;
}

/// Sequential cursor over one run, disk-backed (batched ByteReader
/// reads) or in-memory.
struct RunCursor {
  std::vector<CooEntry> mem;
  std::unique_ptr<ByteReader> file;
  offset_t count = 0;
  offset_t next = 0;           ///< next record index in the run
  std::vector<CooEntry> buf;   ///< disk read-ahead window
  offset_t buf_base = 0;       ///< run index of buf[0]
  CooEntry cur{};
  bool valid = false;

  static constexpr offset_t kBatch = 4096;  // 48 KiB read-ahead per run

  void advance() {
    if (next >= count) {
      valid = false;
      return;
    }
    if (file != nullptr) {
      if (next >= buf_base + static_cast<offset_t>(buf.size()) || next < buf_base) {
        const offset_t n = std::min<offset_t>(kBatch, count - next);
        buf.resize(static_cast<std::size_t>(n));
        file->read_at(static_cast<std::uint64_t>(next) * sizeof(CooEntry), buf.data(),
                      static_cast<std::size_t>(n) * sizeof(CooEntry));
        buf_base = next;
      }
      cur = buf[static_cast<std::size_t>(next - buf_base)];
    } else {
      cur = mem[static_cast<std::size_t>(next)];
    }
    ++next;
    valid = true;
  }
};

}  // namespace

StreamingCsrBuilder::StreamingCsrBuilder(index_t rows, index_t cols, StreamingBuildConfig cfg)
    : rows_(rows), cols_(cols), cfg_(std::move(cfg)) {
  if (rows < 0 || cols < 0) throw invalid_matrix("negative builder dimensions");
  budget_entries_ = std::max<std::size_t>(1024, cfg_.budget_bytes / sizeof(CooEntry));
}

StreamingCsrBuilder::~StreamingCsrBuilder() {
  for (const Run& r : runs_) {
    if (!r.path.empty()) std::remove(r.path.c_str());
  }
}

void StreamingCsrBuilder::note_bytes() {
  peak_bytes_ = std::max(peak_bytes_, staging_.size() * sizeof(CooEntry) + mem_run_bytes_);
}

void StreamingCsrBuilder::add(index_t row, index_t col, value_t value) {
  if (row < 0 || row >= rows_ || col < 0 || col >= cols_) {
    throw invalid_matrix("builder entry (" + std::to_string(row) + ", " + std::to_string(col) +
                         ") out of range for " + std::to_string(rows_) + " x " +
                         std::to_string(cols_));
  }
  staging_.push_back(CooEntry{row, col, value});
  ++entries_added_;
  note_bytes();
  if (staging_.size() >= budget_entries_) spill();
}

void StreamingCsrBuilder::add_entries(std::span<const CooEntry> entries) {
  for (const CooEntry& e : entries) add(e.row, e.col, e.value);
}

void StreamingCsrBuilder::spill() {
  if (staging_.empty()) return;
  std::stable_sort(staging_.begin(), staging_.end(), by_row_col);

  std::string dir = cfg_.spill_dir;
  if (dir.empty()) dir = std::filesystem::temp_directory_path().string();
  const std::string path = dir + "/rrspmm_spill_" + std::to_string(::getpid()) + "_" +
                           std::to_string(reinterpret_cast<std::uintptr_t>(this)) + "_" +
                           std::to_string(runs_.size()) + ".run";

  for (int failures = 0;;) {
    try {
      fault::hit(fault::points::kIoSpill);
      std::FILE* f = std::fopen(path.c_str(), "wb");
      if (f == nullptr) throw io_error("cannot open spill run " + path + " for writing");
      const std::size_t n = staging_.size();
      const bool ok = std::fwrite(staging_.data(), sizeof(CooEntry), n, f) == n;
      const bool closed = std::fclose(f) == 0;
      if (!ok || !closed) {
        std::remove(path.c_str());
        throw io_error("short write on spill run " + path);
      }
      Run r;
      r.path = path;
      r.count = static_cast<offset_t>(n);
      runs_.push_back(std::move(r));
      ++spilled_runs_;
      staging_.clear();
      staging_.shrink_to_fit();
      return;
    } catch (const fault::injected_fault&) {
      if (++failures >= 2) {
        // Degrade: the run stays resident. Correctness is unaffected —
        // in-memory runs merge exactly like disk runs — only the budget
        // is exceeded, which peak_staging_bytes makes visible.
        Run r;
        r.count = static_cast<offset_t>(staging_.size());
        mem_run_bytes_ += staging_.size() * sizeof(CooEntry);
        r.mem = std::move(staging_);
        runs_.push_back(std::move(r));
        ++degraded_runs_;
        staging_ = {};
        note_bytes();
        return;
      }
    }
  }
}

sparse::CsrMatrix StreamingCsrBuilder::finish() {
  if (finished_) throw invalid_matrix("builder already finished");
  finished_ = true;
  // The final staging window acts as the last run, sorted in place.
  std::stable_sort(staging_.begin(), staging_.end(), by_row_col);

  std::vector<RunCursor> cursors(runs_.size() + (staging_.empty() ? 0 : 1));
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    cursors[i].count = runs_[i].count;
    if (runs_[i].path.empty()) {
      cursors[i].mem = std::move(runs_[i].mem);
    } else {
      cursors[i].file = std::make_unique<ByteReader>(runs_[i].path);
      if (cursors[i].file->size() !=
          static_cast<std::uint64_t>(runs_[i].count) * sizeof(CooEntry)) {
        throw io_error("spill run " + runs_[i].path + " has unexpected size");
      }
    }
  }
  if (!staging_.empty()) {
    RunCursor& last = cursors.back();
    last.count = static_cast<offset_t>(staging_.size());
    last.mem = std::move(staging_);
  }
  for (RunCursor& c : cursors) c.advance();

  // Min-heap of run indices ordered by (row, col, run index); runs are
  // arrival-ordered windows, so the tie-break reproduces arrival order
  // across duplicate groups.
  const auto heap_less = [&](std::size_t a, std::size_t b) {
    const CooEntry& x = cursors[a].cur;
    const CooEntry& y = cursors[b].cur;
    if (x.row != y.row) return x.row > y.row;
    if (x.col != y.col) return x.col > y.col;
    return a > b;
  };
  std::vector<std::size_t> heap;
  heap.reserve(cursors.size());
  for (std::size_t i = 0; i < cursors.size(); ++i) {
    if (cursors[i].valid) heap.push_back(i);
  }
  std::make_heap(heap.begin(), heap.end(), heap_less);

  std::vector<offset_t> rowptr(static_cast<std::size_t>(rows_) + 1, 0);
  std::vector<index_t> colidx;
  std::vector<value_t> values;
  const auto emit = [&](const CooEntry& e) {
    ++rowptr[static_cast<std::size_t>(e.row) + 1];
    colidx.push_back(e.col);
    values.push_back(e.value);
  };
  bool have = false;
  CooEntry pending{};
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), heap_less);
    const std::size_t i = heap.back();
    const CooEntry e = cursors[i].cur;
    cursors[i].advance();
    if (cursors[i].valid) {
      std::push_heap(heap.begin(), heap.end(), heap_less);
    } else {
      heap.pop_back();
    }
    if (have && pending.row == e.row && pending.col == e.col) {
      pending.value += e.value;  // left-to-right, global arrival order
    } else {
      if (have) emit(pending);
      pending = e;
      have = true;
    }
  }
  if (have) emit(pending);
  for (std::size_t i = 1; i < rowptr.size(); ++i) rowptr[i] += rowptr[i - 1];
  return sparse::CsrMatrix(rows_, cols_, std::move(rowptr), std::move(colidx), std::move(values));
}

}  // namespace rrspmm::io
