#include "io/rrsb.hpp"

#include <cstdio>
#include <cstring>

namespace rrspmm::io {

using sparse::invalid_matrix;
using sparse::io_error;

namespace {

constexpr std::uint32_t kEndianCheck = 0x01020304u;
constexpr std::size_t kHeaderBytes = 64;
constexpr std::size_t kIndexEntryBytes = 24;

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h = 1469598103934665603ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

// Field-by-field (de)serialisation into a flat byte buffer: the on-disk
// layout must not depend on host struct padding.
template <typename T>
void put(unsigned char* buf, std::size_t off, T v) {
  std::memcpy(buf + off, &v, sizeof(T));
}

template <typename T>
T get(const unsigned char* buf, std::size_t off) {
  T v;
  std::memcpy(&v, buf + off, sizeof(T));
  return v;
}

void fwrite_all(std::FILE* f, const void* data, std::size_t n, const std::string& path) {
  if (n == 0) return;
  if (std::fwrite(data, 1, n, f) != n) throw io_error("write failed on " + path);
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer

RrsbWriter::RrsbWriter(const std::string& path, index_t rows, index_t cols, index_t block_rows)
    : path_(path), rows_(rows), cols_(cols), block_rows_(block_rows) {
  if (rows < 0 || cols < 0) throw invalid_matrix("negative .rrsb dimensions");
  if (block_rows <= 0) throw invalid_matrix(".rrsb block_rows must be positive");
  f_ = std::fopen(path.c_str(), "wb");
  if (f_ == nullptr) throw io_error("cannot open " + path + " for writing");
  const unsigned char zeros[kHeaderBytes] = {};
  fwrite_all(f_, zeros, kHeaderBytes, path_);
}

RrsbWriter::~RrsbWriter() {
  if (f_ != nullptr) std::fclose(f_);
  if (!finished_) std::remove(path_.c_str());
}

void RrsbWriter::append_block(std::span<const offset_t> local_rowptr,
                              std::span<const index_t> colidx,
                              std::span<const value_t> values) {
  if (finished_) throw invalid_matrix(".rrsb writer already finished");
  if (local_rowptr.empty() || local_rowptr.front() != 0) {
    throw invalid_matrix(".rrsb block rowptr must start at 0");
  }
  const auto nrows = static_cast<index_t>(local_rowptr.size() - 1);
  const index_t expected = std::min<index_t>(block_rows_, rows_ - rows_written_);
  if (nrows != expected || expected == 0) {
    throw invalid_matrix(".rrsb block has " + std::to_string(nrows) + " rows, expected " +
                         std::to_string(expected));
  }
  const offset_t block_nnz = local_rowptr.back();
  if (static_cast<offset_t>(colidx.size()) != block_nnz ||
      static_cast<offset_t>(values.size()) != block_nnz) {
    throw invalid_matrix(".rrsb block array sizes disagree with rowptr");
  }

  IndexEntry e;
  e.offset = static_cast<std::uint64_t>(std::ftell(f_));
  e.nnz_before = nnz_;
  fwrite_all(f_, local_rowptr.data(), local_rowptr.size() * sizeof(offset_t), path_);
  fwrite_all(f_, colidx.data(), colidx.size() * sizeof(index_t), path_);
  fwrite_all(f_, values.data(), values.size() * sizeof(value_t), path_);
  std::uint64_t h = fnv1a(local_rowptr.data(), local_rowptr.size() * sizeof(offset_t));
  h = fnv1a(colidx.data(), colidx.size() * sizeof(index_t), h);
  h = fnv1a(values.data(), values.size() * sizeof(value_t), h);
  e.fnv = h;
  index_.push_back(e);
  rows_written_ += nrows;
  nnz_ += block_nnz;
}

void RrsbWriter::finish() {
  if (finished_) return;
  if (rows_written_ != rows_) {
    throw invalid_matrix(".rrsb writer finished with " + std::to_string(rows_written_) + " of " +
                         std::to_string(rows_) + " rows");
  }
  const auto index_offset = static_cast<std::uint64_t>(std::ftell(f_));
  std::vector<unsigned char> ibuf(index_.size() * kIndexEntryBytes);
  for (std::size_t b = 0; b < index_.size(); ++b) {
    put<std::uint64_t>(ibuf.data() + b * kIndexEntryBytes, 0, index_[b].offset);
    put<offset_t>(ibuf.data() + b * kIndexEntryBytes, 8, index_[b].nnz_before);
    put<std::uint64_t>(ibuf.data() + b * kIndexEntryBytes, 16, index_[b].fnv);
  }
  fwrite_all(f_, ibuf.data(), ibuf.size(), path_);

  unsigned char hdr[kHeaderBytes] = {};
  std::memcpy(hdr, "RRSB", 4);
  put<std::uint32_t>(hdr, 4, kRrsbVersion);
  put<std::uint32_t>(hdr, 8, kEndianCheck);
  put<std::uint32_t>(hdr, 12, static_cast<std::uint32_t>(block_rows_));
  put<std::int64_t>(hdr, 16, rows_);
  put<std::int64_t>(hdr, 24, cols_);
  put<std::int64_t>(hdr, 32, nnz_);
  put<std::uint64_t>(hdr, 40, index_offset);
  put<std::uint64_t>(hdr, 48, fnv1a(ibuf.data(), ibuf.size()));
  if (std::fseek(f_, 0, SEEK_SET) != 0) throw io_error("seek failed on " + path_);
  fwrite_all(f_, hdr, kHeaderBytes, path_);
  if (std::fflush(f_) != 0) throw io_error("flush failed on " + path_);
  std::fclose(f_);
  f_ = nullptr;
  finished_ = true;
}

void write_rrsb(const sparse::CsrMatrix& m, const std::string& path, index_t block_rows) {
  RrsbWriter w(path, m.rows(), m.cols(), block_rows);
  std::vector<offset_t> local;
  for (index_t lo = 0; lo < m.rows(); lo += block_rows) {
    const index_t hi = std::min<index_t>(lo + block_rows, m.rows());
    const offset_t base = m.rowptr()[static_cast<std::size_t>(lo)];
    const offset_t end = m.rowptr()[static_cast<std::size_t>(hi)];
    local.assign(static_cast<std::size_t>(hi - lo) + 1, 0);
    for (index_t r = lo; r <= hi; ++r) {
      local[static_cast<std::size_t>(r - lo)] = m.rowptr()[static_cast<std::size_t>(r)] - base;
    }
    w.append_block(local,
                   {m.colidx().data() + base, static_cast<std::size_t>(end - base)},
                   {m.values().data() + base, static_cast<std::size_t>(end - base)});
  }
  w.finish();
}

// ---------------------------------------------------------------------------
// Reader

RrsbReader::RrsbReader(const std::string& path) : bytes_(std::make_unique<ByteReader>(path)) {
  if (bytes_->size() < kHeaderBytes) throw io_error("truncated .rrsb header in " + path);
  unsigned char hdr[kHeaderBytes];
  bytes_->read_at(0, hdr, kHeaderBytes);
  if (std::memcmp(hdr, "RRSB", 4) != 0) throw io_error(path + " is not a .rrsb file");
  const auto version = get<std::uint32_t>(hdr, 4);
  if (version != kRrsbVersion) {
    throw io_error(path + ": unsupported .rrsb version " + std::to_string(version));
  }
  if (get<std::uint32_t>(hdr, 8) != kEndianCheck) {
    throw io_error(path + ": endianness mismatch (file written on a different byte order)");
  }
  block_rows_ = checked_index(get<std::uint32_t>(hdr, 12));
  rows_ = checked_index(get<std::int64_t>(hdr, 16));
  cols_ = checked_index(get<std::int64_t>(hdr, 24));
  nnz_ = get<std::int64_t>(hdr, 32);
  if (block_rows_ <= 0 || nnz_ < 0) throw io_error(path + ": malformed .rrsb header");
  const auto index_offset = get<std::uint64_t>(hdr, 40);
  const auto index_fnv = get<std::uint64_t>(hdr, 48);

  const auto nblocks = static_cast<index_t>((std::int64_t{rows_} + block_rows_ - 1) / block_rows_);
  const std::uint64_t index_bytes = static_cast<std::uint64_t>(nblocks) * kIndexEntryBytes;
  if (index_offset > bytes_->size() || index_offset + index_bytes > bytes_->size()) {
    throw io_error(path + ": truncated .rrsb index");
  }
  std::vector<unsigned char> ibuf(index_bytes);
  bytes_->read_at(index_offset, ibuf.data(), ibuf.size());
  if (fnv1a(ibuf.data(), ibuf.size()) != index_fnv) {
    throw io_error(path + ": .rrsb index checksum mismatch");
  }
  index_.resize(static_cast<std::size_t>(nblocks));
  for (index_t b = 0; b < nblocks; ++b) {
    auto& e = index_[static_cast<std::size_t>(b)];
    e.offset = get<std::uint64_t>(ibuf.data() + b * kIndexEntryBytes, 0);
    e.nnz_before = get<offset_t>(ibuf.data() + b * kIndexEntryBytes, 8);
    e.fnv = get<std::uint64_t>(ibuf.data() + b * kIndexEntryBytes, 16);
    if (e.offset < kHeaderBytes || e.offset > bytes_->size() || e.nnz_before < 0 ||
        e.nnz_before > nnz_ || (b > 0 && e.nnz_before < index_[static_cast<std::size_t>(b - 1)].nnz_before)) {
      throw io_error(path + ": malformed .rrsb index entry " + std::to_string(b));
    }
  }
  // Every count a later read allocates from must fit in the file: each
  // block's rowptr, colidx and values lie between its offset and the end.
  if (nblocks == 0 && nnz_ != 0) throw io_error(path + ": malformed .rrsb header");
  for (index_t b = 0; b < nblocks; ++b) {
    const std::uint64_t avail = bytes_->size() - index_[static_cast<std::size_t>(b)].offset;
    const std::uint64_t rowptr_bytes =
        (static_cast<std::uint64_t>(block_end(b) - block_begin(b)) + 1) * sizeof(offset_t);
    if (rowptr_bytes > avail || static_cast<std::uint64_t>(block_nnz(b)) >
                                    (avail - rowptr_bytes) / (sizeof(index_t) + sizeof(value_t))) {
      throw io_error(path + ": .rrsb block " + std::to_string(b) + " extends past end of file");
    }
  }
}

offset_t RrsbReader::nnz_before(index_t b) const {
  return index_[static_cast<std::size_t>(b)].nnz_before;
}

offset_t RrsbReader::block_nnz(index_t b) const {
  const offset_t hi = b + 1 < num_blocks() ? index_[static_cast<std::size_t>(b) + 1].nnz_before : nnz_;
  return hi - index_[static_cast<std::size_t>(b)].nnz_before;
}

void RrsbReader::load_block(index_t b, std::vector<offset_t>& rowptr,
                            std::vector<index_t>& colidx, std::vector<value_t>& values) const {
  const auto& e = index_[static_cast<std::size_t>(b)];
  const index_t nrows = block_end(b) - block_begin(b);
  const offset_t bnnz = block_nnz(b);
  const std::size_t rowptr_bytes = (static_cast<std::size_t>(nrows) + 1) * sizeof(offset_t);
  const std::size_t col_bytes = static_cast<std::size_t>(bnnz) * sizeof(index_t);
  const std::size_t val_bytes = static_cast<std::size_t>(bnnz) * sizeof(value_t);
  std::vector<unsigned char> buf(rowptr_bytes + col_bytes + val_bytes);
  bytes_->read_at(e.offset, buf.data(), buf.size());
  if (fnv1a(buf.data(), buf.size()) != e.fnv) {
    throw io_error(bytes_->path() + ": .rrsb block " + std::to_string(b) + " checksum mismatch");
  }
  rowptr.resize(static_cast<std::size_t>(nrows) + 1);
  colidx.resize(static_cast<std::size_t>(bnnz));
  values.resize(static_cast<std::size_t>(bnnz));
  std::memcpy(rowptr.data(), buf.data(), rowptr_bytes);
  std::memcpy(colidx.data(), buf.data() + rowptr_bytes, col_bytes);
  std::memcpy(values.data(), buf.data() + rowptr_bytes + col_bytes, val_bytes);
  if (rowptr.front() != 0 || rowptr.back() != bnnz) {
    throw io_error(bytes_->path() + ": .rrsb block " + std::to_string(b) +
                   " rowptr disagrees with index");
  }
}

sparse::CsrMatrix RrsbReader::read_range(index_t row_begin, index_t row_end) const {
  if (row_begin < 0 || row_end < row_begin || row_end > rows_) {
    throw invalid_matrix(".rrsb read_range [" + std::to_string(row_begin) + ", " +
                         std::to_string(row_end) + ") out of bounds for " +
                         std::to_string(rows_) + " rows");
  }
  const index_t nrows = row_end - row_begin;
  std::vector<offset_t> rowptr(static_cast<std::size_t>(nrows) + 1, 0);
  std::vector<index_t> colidx;
  std::vector<value_t> values;
  if (nrows == 0) {
    return sparse::CsrMatrix(0, cols_, std::move(rowptr), std::move(colidx), std::move(values));
  }

  std::vector<offset_t> brp;
  std::vector<index_t> bci;
  std::vector<value_t> bva;
  index_t out_row = 0;
  for (index_t b = row_begin / block_rows_; b < num_blocks() && block_begin(b) < row_end; ++b) {
    load_block(b, brp, bci, bva);
    const index_t lo = std::max(row_begin, block_begin(b)) - block_begin(b);
    const index_t hi = std::min(row_end, block_end(b)) - block_begin(b);
    const offset_t first = brp[static_cast<std::size_t>(lo)];
    const offset_t last = brp[static_cast<std::size_t>(hi)];
    colidx.insert(colidx.end(), bci.begin() + first, bci.begin() + last);
    values.insert(values.end(), bva.begin() + first, bva.begin() + last);
    for (index_t r = lo; r < hi; ++r) {
      rowptr[static_cast<std::size_t>(out_row) + 1] =
          rowptr[static_cast<std::size_t>(out_row)] +
          (brp[static_cast<std::size_t>(r) + 1] - brp[static_cast<std::size_t>(r)]);
      ++out_row;
    }
  }
  return sparse::CsrMatrix(nrows, cols_, std::move(rowptr), std::move(colidx), std::move(values));
}

}  // namespace rrspmm::io
