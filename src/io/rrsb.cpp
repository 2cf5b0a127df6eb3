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

void write_rrsb(const sparse::CsrMatrix& m, const std::string& path, index_t block_rows) {
  if (block_rows <= 0) throw invalid_matrix(".rrsb block_rows must be positive");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw io_error("cannot open " + path + " for writing");
  try {
    const unsigned char zeros[kHeaderBytes] = {};
    fwrite_all(f, zeros, kHeaderBytes, path);

    const std::int64_t rows = m.rows();
    const auto nblocks = static_cast<std::size_t>((rows + block_rows - 1) / block_rows);
    std::vector<unsigned char> ibuf(nblocks * kIndexEntryBytes);
    std::uint64_t offset = kHeaderBytes;
    std::vector<offset_t> local;
    for (std::size_t b = 0; b < nblocks; ++b) {
      const auto lo = static_cast<std::size_t>(static_cast<std::int64_t>(b) * block_rows);
      const auto hi = static_cast<std::size_t>(std::min(std::int64_t(lo) + block_rows, rows));
      const offset_t base = m.rowptr()[lo];
      const auto nnz_b = static_cast<std::size_t>(m.rowptr()[hi] - base);
      local.resize(hi - lo + 1);
      for (std::size_t r = lo; r <= hi; ++r) local[r - lo] = m.rowptr()[r] - base;
      const index_t* cols = m.colidx().data() + base;
      const value_t* vals = m.values().data() + base;
      fwrite_all(f, local.data(), local.size() * sizeof(offset_t), path);
      fwrite_all(f, cols, nnz_b * sizeof(index_t), path);
      fwrite_all(f, vals, nnz_b * sizeof(value_t), path);
      std::uint64_t h = fnv1a(local.data(), local.size() * sizeof(offset_t));
      h = fnv1a(cols, nnz_b * sizeof(index_t), h);
      h = fnv1a(vals, nnz_b * sizeof(value_t), h);
      unsigned char* e = ibuf.data() + b * kIndexEntryBytes;
      put<std::uint64_t>(e, 0, offset);
      put<offset_t>(e, 8, base);
      put<std::uint64_t>(e, 16, h);
      offset += local.size() * sizeof(offset_t) + nnz_b * (sizeof(index_t) + sizeof(value_t));
    }
    fwrite_all(f, ibuf.data(), ibuf.size(), path);

    unsigned char hdr[kHeaderBytes] = {};
    std::memcpy(hdr, "RRSB", 4);
    put<std::uint32_t>(hdr, 4, kRrsbVersion);
    put<std::uint32_t>(hdr, 8, kEndianCheck);
    put<std::uint32_t>(hdr, 12, static_cast<std::uint32_t>(block_rows));
    put<std::int64_t>(hdr, 16, m.rows());
    put<std::int64_t>(hdr, 24, m.cols());
    put<std::int64_t>(hdr, 32, m.nnz());
    put<std::uint64_t>(hdr, 40, offset);
    put<std::uint64_t>(hdr, 48, fnv1a(ibuf.data(), ibuf.size()));
    if (std::fseek(f, 0, SEEK_SET) != 0) throw io_error("seek failed on " + path);
    fwrite_all(f, hdr, kHeaderBytes, path);
    const int closed = std::fclose(f);
    f = nullptr;
    if (closed != 0) throw io_error("close failed on " + path);
  } catch (...) {
    if (f != nullptr) std::fclose(f);
    std::remove(path.c_str());
    throw;
  }
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
  if (index_offset < kHeaderBytes || index_offset > bytes_->size() ||
      index_offset + index_bytes > bytes_->size()) {
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
    if (e.nnz_before < 0 || e.nnz_before > nnz_ ||
        (b == 0 ? e.nnz_before != 0
                : e.nnz_before < index_[static_cast<std::size_t>(b - 1)].nnz_before)) {
      throw io_error(path + ": malformed .rrsb index entry " + std::to_string(b));
    }
  }
  // Blocks lie back to back from the header up to the index, so every
  // count a read allocates from is bounded by the file's size.
  if (nblocks == 0 && nnz_ != 0) throw io_error(path + ": malformed .rrsb header");
  std::uint64_t next = kHeaderBytes;
  for (index_t b = 0; b < nblocks; ++b) {
    const std::uint64_t room = index_offset - next;
    const std::uint64_t rowptr_bytes =
        (static_cast<std::uint64_t>(block_end(b) - block_begin(b)) + 1) * sizeof(offset_t);
    if (index_[static_cast<std::size_t>(b)].offset != next || rowptr_bytes > room ||
        static_cast<std::uint64_t>(block_nnz(b)) >
            (room - rowptr_bytes) / (sizeof(index_t) + sizeof(value_t))) {
      throw io_error(path + ": .rrsb block " + std::to_string(b) + " extends past its section");
    }
    next += block_bytes(b);
  }
  if (next != index_offset) throw io_error(path + ": malformed .rrsb block layout");
}

offset_t RrsbReader::block_nnz(index_t b) const {
  const offset_t hi = b + 1 < num_blocks() ? index_[static_cast<std::size_t>(b + 1)].nnz_before
                                           : nnz_;
  return hi - index_[static_cast<std::size_t>(b)].nnz_before;
}

std::uint64_t RrsbReader::block_bytes(index_t b) const {
  return (static_cast<std::uint64_t>(block_end(b) - block_begin(b)) + 1) * sizeof(offset_t) +
         static_cast<std::uint64_t>(block_nnz(b)) * (sizeof(index_t) + sizeof(value_t));
}

sparse::CsrMatrix RrsbReader::read() const {
  std::vector<offset_t> rowptr(static_cast<std::size_t>(rows_) + 1, 0);
  std::vector<index_t> colidx(static_cast<std::size_t>(nnz_));
  std::vector<value_t> values(static_cast<std::size_t>(nnz_));
  std::vector<unsigned char> buf;
  for (index_t b = 0; b < num_blocks(); ++b) {
    const IndexEntry& e = index_[static_cast<std::size_t>(b)];
    const auto nrows = static_cast<std::size_t>(block_end(b) - block_begin(b));
    const offset_t bnnz = block_nnz(b);
    buf.resize(static_cast<std::size_t>(block_bytes(b)));
    bytes_->read_at(e.offset, buf.data(), buf.size());
    if (fnv1a(buf.data(), buf.size()) != e.fnv) {
      throw io_error(bytes_->path() + ": .rrsb block " + std::to_string(b) + " checksum mismatch");
    }
    offset_t* out = rowptr.data() + block_begin(b);
    for (std::size_t r = 0; r <= nrows; ++r) {
      const auto local = get<offset_t>(buf.data(), r * sizeof(offset_t));
      if (local < 0 || local > bnnz || (r == 0 && local != 0) || (r == nrows && local != bnnz)) {
        throw io_error(bytes_->path() + ": .rrsb block " + std::to_string(b) +
                       " rowptr disagrees with index");
      }
      out[r] = e.nnz_before + local;
    }
    const unsigned char* cols = buf.data() + (nrows + 1) * sizeof(offset_t);
    const auto n = static_cast<std::size_t>(bnnz);
    if (n == 0) continue;  // memcpy needs non-null pointers even for 0 bytes
    std::memcpy(colidx.data() + e.nnz_before, cols, n * sizeof(index_t));
    std::memcpy(values.data() + e.nnz_before, cols + n * sizeof(index_t), n * sizeof(value_t));
  }
  return sparse::CsrMatrix(rows_, cols_, std::move(rowptr), std::move(colidx), std::move(values));
}

}  // namespace rrspmm::io
