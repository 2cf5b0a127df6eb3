// .rrsb format tests: whole-matrix round trips at every block height,
// a failed write leaving no file, corruption and version rejection,
// io.read fault degrade, and header or index counts the file cannot hold.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
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
  EXPECT_EQ(r.read(), m);
}

TEST(IoRrsb, RoundTripsAtEveryBlockHeight) {
  const test::TempFile file("iorrsb.rrsb");
  // One row per block, block seams mid-matrix, a ragged final block
  // (257 rows at 32 and 256), one block exactly, one block with room.
  const CsrMatrix m = sample();
  for (const index_t block_rows : {1, 32, 256, 257, 4096}) {
    io::write_rrsb(m, file.path, block_rows);
    EXPECT_EQ(io::RrsbReader(file.path).read(), m) << block_rows;
  }
  // Empty rows, an empty matrix, and rows but no nonzeros.
  const CsrMatrix gappy = test::csr({{0, 0, 0}, {1, 0, 2}, {0, 0, 0}, {0, 3, 0}});
  const CsrMatrix shapes[] = {gappy, CsrMatrix(0, 5, {0}, {}, {}),
                              CsrMatrix(3, 2, {0, 0, 0, 0}, {}, {})};
  for (const CsrMatrix& s : shapes) {
    io::write_rrsb(s, file.path, 2);
    EXPECT_EQ(io::RrsbReader(file.path).read(), s) << s.rows() << " x " << s.cols();
  }
  EXPECT_THROW(io::write_rrsb(m, file.path, 0), sparse::invalid_matrix);
}

TEST(IoRrsb, WriterRemovesUnfinishedFile) {
  const test::TempFile file("iorrsb.rrsb");
  const CsrMatrix m = sample(4000, 256);  // about 200 KB on disk
  // A file-size limit makes the write fail part way. The limit and the
  // ignored SIGXFSZ stay in the forked child.
  EXPECT_EXIT(
      {
        std::signal(SIGXFSZ, SIG_IGN);
        rlimit lim{};
        getrlimit(RLIMIT_FSIZE, &lim);
        lim.rlim_cur = 16 << 10;
        setrlimit(RLIMIT_FSIZE, &lim);
        int code = 1;
        try {
          io::write_rrsb(m, file.path);
        } catch (const sparse::io_error&) {
          code = std::filesystem::exists(file.path) ? 2 : 0;
        }
        std::_Exit(code);
      },
      ::testing::ExitedWithCode(0), "");
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
  EXPECT_THROW(r.read(), sparse::io_error);
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
  EXPECT_EQ(r.read(), m);
  EXPECT_TRUE(r.buffered());  // mmap path permanently degraded
}

// A valid two-block file whose second index entry is rewritten to point
// at the first block, with the index checksum recomputed: both blocks
// pass their own checksums, but the layout would let a small file
// declare more rows and nonzeros than it holds.
TEST(IoRrsb, RejectsOverlappingBlocks) {
  const test::TempFile file("iorrsb.rrsb");
  const CsrMatrix m = synth::erdos_renyi(64, 16, 64 * 4, 3);
  io::write_rrsb(m, file.path, 32);
  std::fstream f(file.path, std::ios::in | std::ios::out | std::ios::binary);
  std::uint64_t index_offset = 0;
  f.seekg(40);
  f.read(reinterpret_cast<char*>(&index_offset), 8);
  unsigned char index[48];
  f.seekg(static_cast<std::streamoff>(index_offset));
  f.read(reinterpret_cast<char*>(index), sizeof index);
  std::memcpy(index + 24, index, 8);  // block 1 offset := block 0 offset
  std::uint64_t fnv = 1469598103934665603ULL;
  for (const unsigned char c : index) fnv = (fnv ^ c) * 1099511628211ULL;
  f.seekp(static_cast<std::streamoff>(index_offset));
  f.write(reinterpret_cast<const char*>(index), sizeof index);
  f.seekp(48);
  f.write(reinterpret_cast<const char*>(&fnv), 8);
  f.close();
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
