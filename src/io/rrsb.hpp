// .rrsb — the row-block binary matrix format (version 1).
//
// A .rrsb file stores one CSR matrix split into fixed-height row blocks,
// each with its own checksum. It is written and read whole: loading one
// takes a small fraction of a .mtx parse of the same matrix
// (EXPERIMENTS.md). All integers are little-endian.
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
// the blocks lie back to back from offset 64 up to the index, each
// (nrows_b + 1) * 8 + nnz_b * 8 bytes long, so every count a read
// allocates from is bounded by the file's size. Versions other than 1
// are rejected.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/byte_reader.hpp"
#include "sparse/csr.hpp"

namespace rrspmm::io {

inline constexpr std::uint32_t kRrsbVersion = 1;
inline constexpr index_t kDefaultBlockRows = 4096;

/// Writes `m` as .rrsb. A write that fails part way removes its
/// partial output.
void write_rrsb(const sparse::CsrMatrix& m, const std::string& path,
                index_t block_rows = kDefaultBlockRows);

/// A .rrsb file opened for reading: the header and the block index are
/// checked at open, the blocks on read().
class RrsbReader {
 public:
  explicit RrsbReader(const std::string& path);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  offset_t nnz() const { return nnz_; }

  /// Loads the whole matrix, verifying every block's checksum. The
  /// result is validated on construction, so a corrupt file cannot
  /// smuggle in a malformed matrix.
  sparse::CsrMatrix read() const;

  /// True once the underlying reads degraded from mmap to buffered.
  bool buffered() const { return bytes_->buffered(); }

 private:
  struct IndexEntry {
    std::uint64_t offset = 0;
    offset_t nnz_before = 0;
    std::uint64_t fnv = 0;
  };

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
  /// Bytes block b occupies on disk.
  std::uint64_t block_bytes(index_t b) const;

  std::unique_ptr<ByteReader> bytes_;
  index_t rows_ = 0;
  index_t cols_ = 0;
  offset_t nnz_ = 0;
  index_t block_rows_ = 0;
  std::vector<IndexEntry> index_;
};

}  // namespace rrspmm::io
