// .rrsb — the row-range shard binary format (version 1).
//
// A .rrsb file stores one CSR matrix split into fixed-height row blocks
// so that any row range can be materialised by reading only the blocks
// it overlaps — the on-disk counterpart of the row-range slices the
// sharded executor works in. All integers are little-endian.
//
//   header (64 bytes, at offset 0)
//     0   char[4]  magic            "RRSB"
//     4   u32      version          1
//     8   u32      endian_check     0x01020304 (readers reject a mismatch)
//     12  u32      block_rows       rows per block (last block may be short)
//     16  i64      rows
//     24  i64      cols
//     32  i64      nnz
//     40  u64      index_offset     file offset of the block index
//     48  u64      index_fnv        FNV-1a 64 of the index bytes
//     56  u64      reserved         0
//
//   blocks (back to back, starting at offset 64); block b covers rows
//   [b * block_rows, min((b+1) * block_rows, rows)) and is self-contained:
//     i64[nrows_b + 1]  local_rowptr   starts at 0
//     i32[nnz_b]        colidx         global column ids, sorted per row
//     f32[nnz_b]        values
//
//   index (at index_offset): one 24-byte entry per block
//     u64  block_offset   file offset of the block
//     i64  nnz_before     nonzeros in all earlier blocks
//     u64  block_fnv      FNV-1a 64 of the block bytes
//
// Integrity: the reader verifies index_fnv at open and each block's fnv
// on every load from disk, so a torn write or bit rot surfaces as a
// typed io_error instead of a wrong answer. At open it also checks that
// every block's extent, (nrows_b + 1) * 8 + nnz_b * 8 bytes from its
// offset, lies inside the file, so no read allocates from a header count
// the file cannot hold. Versions other than 1 are rejected.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "io/byte_reader.hpp"
#include "sparse/csr.hpp"

namespace rrspmm::io {

inline constexpr std::uint32_t kRrsbVersion = 1;
inline constexpr index_t kDefaultBlockRows = 4096;

/// Incremental writer: blocks are appended front to back, then finish()
/// writes the index and backpatches the header. The StreamingCsrBuilder
/// drives this with one block of rows in memory at a time.
class RrsbWriter {
 public:
  RrsbWriter(const std::string& path, index_t rows, index_t cols,
             index_t block_rows = kDefaultBlockRows);
  /// Closes the file; an unfinished writer removes its partial output.
  ~RrsbWriter();

  RrsbWriter(const RrsbWriter&) = delete;
  RrsbWriter& operator=(const RrsbWriter&) = delete;

  /// Appends the next block. `local_rowptr` has nrows + 1 entries
  /// starting at 0, where nrows must be exactly block_rows — or, for the
  /// final block, the remaining row count. colidx/values hold the
  /// block's nonzeros (global columns, sorted within each row).
  void append_block(std::span<const offset_t> local_rowptr, std::span<const index_t> colidx,
                    std::span<const value_t> values);

  /// Writes the index and the header. Throws invalid_matrix when the
  /// appended blocks do not cover every row.
  void finish();

  offset_t nnz_written() const { return nnz_; }

 private:
  struct IndexEntry {
    std::uint64_t offset = 0;
    offset_t nnz_before = 0;
    std::uint64_t fnv = 0;
  };

  std::string path_;
  std::FILE* f_ = nullptr;
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t block_rows_ = 0;
  index_t rows_written_ = 0;
  offset_t nnz_ = 0;
  bool finished_ = false;
  std::vector<IndexEntry> index_;
};

/// Writes a resident matrix as .rrsb (block slices of a CSR are
/// contiguous, so this is a straight pass over the arrays).
void write_rrsb(const sparse::CsrMatrix& m, const std::string& path,
                index_t block_rows = kDefaultBlockRows);

/// Random row-range access to a .rrsb file. read_range is const and
/// thread-safe (per-call scratch only; the underlying ByteReader allows
/// concurrent reads), so concurrent callers can slice the same reader.
class RrsbReader {
 public:
  explicit RrsbReader(const std::string& path);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  offset_t nnz() const { return nnz_; }
  index_t block_rows() const { return block_rows_; }
  index_t num_blocks() const { return static_cast<index_t>(index_.size()); }

  /// First row of block b.
  index_t block_begin(index_t b) const { return b * block_rows_; }
  /// One past the last row of block b.
  index_t block_end(index_t b) const {
    return static_cast<index_t>(
        std::min<std::int64_t>(std::int64_t{b + 1} * block_rows_, rows_));
  }
  /// Nonzeros of block b, from the index alone (no block read).
  offset_t block_nnz(index_t b) const;
  /// Nonzeros in all blocks before b.
  offset_t nnz_before(index_t b) const;

  /// Materialises rows [row_begin, row_end) as a CSR slice with global
  /// column ids (local row 0 = global row_begin). The slice is validated
  /// on construction, so a corrupt file cannot smuggle in a malformed
  /// matrix.
  sparse::CsrMatrix read_range(index_t row_begin, index_t row_end) const;

  /// True once the underlying reads degraded from mmap to buffered.
  bool buffered() const { return bytes_->buffered(); }

 private:
  struct IndexEntry {
    std::uint64_t offset = 0;
    offset_t nnz_before = 0;
    std::uint64_t fnv = 0;
  };

  void load_block(index_t b, std::vector<offset_t>& rowptr, std::vector<index_t>& colidx,
                  std::vector<value_t>& values) const;

  std::unique_ptr<ByteReader> bytes_;
  index_t rows_ = 0;
  index_t cols_ = 0;
  offset_t nnz_ = 0;
  index_t block_rows_ = 0;
  std::vector<IndexEntry> index_;
};

}  // namespace rrspmm::io
