// The library's Matrix Market (.mtx) reader — the interchange format of
// SuiteSparse and the Network Repository, so the library runs on the
// paper's original corpus when it is on disk.
//
// Dialect: `matrix coordinate (real|integer|pattern) (general|symmetric)`.
// Pattern entries get value 1.0; symmetric files are expanded to
// general storage. The reader never holds more than a bounded window of
// the file: next_chunk() emits batches of COO entries in file order,
// with symmetric expansion applied inline (each off-diagonal entry is
// immediately followed by its mirror), and StreamingCsrBuilder sums
// duplicates in that arrival order — the result equals
// CsrMatrix::from_coo on the file's entry sequence bit for bit, at any
// chunk size and staging budget.
//
// Reads go through ByteReader: mmap fast path, io.read fault probe,
// degrade to buffered pread. Numbers are parsed with std::from_chars,
// which rounds correctly (as istream extraction does).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "io/byte_reader.hpp"
#include "io/streaming_builder.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace rrspmm::io {

/// Parsed `%%MatrixMarket ...` banner.
struct MmBanner {
  bool pattern = false;    ///< entries carry no value (implied 1.0)
  bool symmetric = false;  ///< lower triangle stored; expanded on read
};

/// Parses the banner line. Throws io_error on anything but
/// `matrix coordinate (real|integer|pattern) (general|symmetric)`.
MmBanner parse_mm_banner(const std::string& banner_line);

/// Validates a Matrix Market size line's numbers: dimensions must be
/// non-negative and fit index_t, the entry count must be non-negative
/// and no larger than rows * cols (coordinate entries are unique per
/// the format spec). Throws io_error with the offending value.
void check_mm_sizes(std::int64_t rows, std::int64_t cols, std::int64_t entries);

struct MmStreamHeader {
  index_t rows = 0;
  index_t cols = 0;
  std::int64_t declared_entries = 0;  ///< size-line count, pre-expansion
  bool pattern = false;
  bool symmetric = false;
};

class MmChunkReader {
 public:
  /// Opens and parses the banner, comments and size line: typed io_error
  /// for a missing file, malformed or truncated headers, and negative or
  /// overflowing sizes. `chunk_bytes` bounds how much of the entry
  /// section one next_chunk call consumes; it is clamped up so a chunk
  /// always holds at least one entry.
  explicit MmChunkReader(const std::string& path, std::size_t chunk_bytes = 1u << 20);

  const MmStreamHeader& header() const { return hdr_; }

  /// Clears `out` and fills it with the next batch of entries
  /// (0-based, symmetric-expanded, file order). Returns false — with
  /// `out` empty — once every declared entry has been emitted. Throws
  /// io_error on a truncated or malformed entry list, or indices
  /// outside the declared dimensions (reported with their 1-based
  /// entry ordinal).
  bool next_chunk(std::vector<sparse::CooEntry>& out);

  /// Entries emitted so far, post-expansion.
  std::int64_t entries_emitted() const { return emitted_; }
  /// True once reads degraded from mmap to buffered.
  bool buffered() const { return bytes_.buffered(); }

 private:
  bool refill();  ///< slides the window; false when the file is drained
  void skip_ws();
  /// Parses the next number into `v`; false on a malformed or missing one.
  template <typename T>
  bool parse_number(T& v);

  ByteReader bytes_;
  MmStreamHeader hdr_;
  std::size_t chunk_bytes_;
  std::vector<char> window_;
  std::size_t wpos_ = 0;   ///< cursor into window_
  std::size_t wlen_ = 0;   ///< valid bytes in window_
  std::uint64_t fpos_ = 0; ///< file offset of window_[wlen_]
  std::int64_t parsed_ = 0;   ///< entries parsed, pre-expansion
  std::int64_t emitted_ = 0;  ///< entries emitted, post-expansion
};

/// Reads a Matrix Market file: chunked parse into a budgeted builder,
/// returning the resident CSR. Throws io_error on malformed input: a bad
/// banner or size line, a truncated or non-numeric entry list, and
/// 1-based indices outside the declared dimensions are all reported with
/// their position. The result is the same for any chunk size and budget.
sparse::CsrMatrix read_matrix_market_streamed(const std::string& path,
                                              const StreamingBuildConfig& cfg = {},
                                              std::size_t chunk_bytes = 1u << 20);

}  // namespace rrspmm::io
