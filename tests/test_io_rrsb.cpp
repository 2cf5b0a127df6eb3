// .rrsb shard format tests: round trips, row-range slices against the
// resident matrix, index arithmetic, corruption and version rejection,
// io.read fault degrade, and header counts the file cannot hold.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "io/rrsb.hpp"
#include "synth/generators.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

using sparse::CsrMatrix;

CsrMatrix sample(index_t rows = 257, index_t cols = 64) {
  return synth::erdos_renyi(rows, cols, static_cast<offset_t>(rows) * 6, 42);
}

void flip_byte(const std::string& path, std::streamoff off, bool from_end = false) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(off, from_end ? std::ios::end : std::ios::beg);
  const char b = static_cast<char>(f.get());
  f.seekp(off, from_end ? std::ios::end : std::ios::beg);
  f.put(static_cast<char>(b ^ 0x5a));
}

TEST(IoRrsb, RoundTripsWholeMatrix) {
  const test::TempFile file("iorrsb.rrsb");
  const CsrMatrix m = sample();
  io::write_rrsb(m, file.path, /*block_rows=*/32);
  const io::RrsbReader r(file.path);
  EXPECT_EQ(r.rows(), m.rows());
  EXPECT_EQ(r.cols(), m.cols());
  EXPECT_EQ(r.nnz(), m.nnz());
  EXPECT_EQ(r.read_range(0, r.rows()), m);
}

TEST(IoRrsb, SlicesMatchResidentRows) {
  const test::TempFile file("iorrsb.rrsb");
  const CsrMatrix m = sample();
  io::write_rrsb(m, file.path, 32);
  const io::RrsbReader r(file.path);
  // Within a block, across block seams, block-aligned, and the ragged
  // final block (257 rows at block_rows 32).
  const std::pair<index_t, index_t> ranges[] = {{3, 7}, {30, 70}, {64, 96}, {250, 257}, {0, 1}};
  for (const auto& [lo, hi] : ranges) {
    const CsrMatrix s = r.read_range(lo, hi);
    ASSERT_EQ(s.rows(), hi - lo);
    EXPECT_EQ(s.cols(), m.cols());
    for (index_t i = 0; i < s.rows(); ++i) {
      ASSERT_TRUE(std::ranges::equal(s.row_cols(i), m.row_cols(lo + i))) << lo + i;
      ASSERT_TRUE(std::ranges::equal(s.row_vals(i), m.row_vals(lo + i))) << lo + i;
    }
  }
  EXPECT_EQ(r.read_range(40, 40).rows(), 0);
  EXPECT_EQ(r.read_range(40, 40).nnz(), 0);
}

TEST(IoRrsb, IndexArithmeticIsConsistent) {
  const test::TempFile file("iorrsb.rrsb");
  const CsrMatrix m = sample();
  io::write_rrsb(m, file.path, 32);
  const io::RrsbReader r(file.path);
  ASSERT_EQ(r.num_blocks(), (m.rows() + 31) / 32);
  offset_t sum = 0;
  for (index_t b = 0; b < r.num_blocks(); ++b) {
    EXPECT_EQ(r.nnz_before(b), sum);
    EXPECT_EQ(r.block_end(b) - r.block_begin(b), b + 1 < r.num_blocks() ? 32 : m.rows() - 32 * b);
    sum += r.block_nnz(b);
  }
  EXPECT_EQ(sum, m.nnz());
}

TEST(IoRrsb, RejectsCorruptIndexAtOpen) {
  const test::TempFile file("iorrsb.rrsb");
  io::write_rrsb(sample(), file.path, 32);
  // The index lives at the end of the file; flip a byte in it.
  flip_byte(file.path, -4, /*from_end=*/true);
  EXPECT_THROW(io::RrsbReader{file.path}, sparse::io_error);
}

TEST(IoRrsb, RejectsCorruptBlockOnRead) {
  const test::TempFile file("iorrsb.rrsb");
  io::write_rrsb(sample(), file.path, 32);
  // Blocks start right after the 64-byte header; the open-time index
  // check does not touch them, the per-load checksum does.
  flip_byte(file.path, 80);
  const io::RrsbReader r(file.path);
  EXPECT_THROW(r.read_range(0, 8), sparse::io_error);
}

TEST(IoRrsb, RejectsUnknownVersion) {
  const test::TempFile file("iorrsb.rrsb");
  io::write_rrsb(sample(), file.path, 32);
  flip_byte(file.path, 4);  // header offset 4: u32 version
  EXPECT_THROW(io::RrsbReader{file.path}, sparse::io_error);
}

TEST(IoRrsb, InjectedReadFaultDegradesToBufferedAndRetries) {
  const test::TempFile file("iorrsb.rrsb");
  const CsrMatrix m = sample();
  io::write_rrsb(m, file.path, 32);
  fault::FaultPlan plan;
  plan.seed = 99;
  fault::FaultRule rule;
  rule.point = fault::points::kIoRead;
  rule.kind = fault::FaultKind::throw_error;
  rule.probability = 1.0;
  rule.max_triggers = 2;
  plan.rules.push_back(rule);
  fault::ScopedFaultPlan armed(std::move(plan));

  const io::RrsbReader r(file.path);  // open survives the injected faults
  EXPECT_EQ(r.read_range(0, r.rows()), m);
  EXPECT_TRUE(r.buffered());  // mmap path permanently degraded
}

TEST(IoRrsb, WriterRemovesUnfinishedFile) {
  const test::TempFile file("iorrsb.rrsb");
  const CsrMatrix m = sample(64, 16);
  {
    io::RrsbWriter w(file.path, m.rows(), m.cols(), 32);
    // No finish(): the partial file must not survive.
  }
  EXPECT_THROW(io::RrsbReader{file.path}, sparse::io_error);
}

// An 88-byte file: a 64-byte header, then a one-entry index at offset 64
// with a valid checksum, whose block also starts at offset 64. Only the
// header's counts are hostile.
void write_hostile_rrsb(const std::string& path, std::int64_t rows, std::uint32_t block_rows,
                        std::int64_t nnz) {
  unsigned char index[24] = {};
  const std::uint64_t block_offset = 64;
  std::memcpy(index, &block_offset, 8);
  std::uint64_t fnv = 1469598103934665603ULL;
  for (const unsigned char c : index) fnv = (fnv ^ c) * 1099511628211ULL;

  unsigned char hdr[64] = {};
  const std::uint32_t version = 1, endian = 0x01020304u;
  const std::int64_t cols = 4;
  const std::uint64_t index_offset = 64;
  std::memcpy(hdr, "RRSB", 4);
  std::memcpy(hdr + 4, &version, 4);
  std::memcpy(hdr + 8, &endian, 4);
  std::memcpy(hdr + 12, &block_rows, 4);
  std::memcpy(hdr + 16, &rows, 8);
  std::memcpy(hdr + 24, &cols, 8);
  std::memcpy(hdr + 32, &nnz, 8);
  std::memcpy(hdr + 40, &index_offset, 8);
  std::memcpy(hdr + 48, &fnv, 8);
  std::ofstream f(path, std::ios::binary);
  f.write(reinterpret_cast<const char*>(hdr), sizeof hdr);
  f.write(reinterpret_cast<const char*>(index), sizeof index);
}

TEST(IoRrsb, HostileHeaderCountsRaiseIoError) {
  const test::TempFile file("iorrsb.rrsb");
  // nnz far beyond the file (once enough to allocate 2 GB, once enough
  // to make the allocation itself fail), and 10^8 rows in one block.
  const struct {
    std::int64_t rows;
    std::uint32_t block_rows;
    std::int64_t nnz;
  } headers[] = {{1, 1, std::int64_t{1} << 28},
                 {1, 1, std::int64_t{1} << 34},
                 {100000000, 100000000, 0}};
  for (const auto& h : headers) {
    write_hostile_rrsb(file.path, h.rows, h.block_rows, h.nnz);
    EXPECT_THROW(io::RrsbReader{file.path}, sparse::io_error) << h.rows << " rows, " << h.nnz;
  }
}

}  // namespace
}  // namespace rrspmm
