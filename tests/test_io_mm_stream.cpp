// Chunked Matrix Market reader tests: bitwise identity with the
// reference parser across chunk sizes and budgets, symmetric/pattern
// dialects, arrival-order duplicate summation, the banner and size-line
// checks, header hardening, and the .mtx -> .rrsb -> CSR round trip.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "io/mm_stream.hpp"
#include "io/rrsb.hpp"
#include "mm_reference.hpp"
#include "sparse/io_mm.hpp"
#include "synth/generators.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

using sparse::CsrMatrix;

void write_text(const std::string& path, const std::string& body) {
  std::ofstream f(path, std::ios::trunc);
  f << body;
}

using test::reference::streamed_mismatch;

TEST(IoMm, StreamedMatchesResidentAtEveryChunkSize) {
  const test::TempFile mm("iomm.mtx");
  const CsrMatrix m = synth::erdos_renyi(120, 90, 900, 7);
  sparse::write_matrix_market(m, mm.path);
  EXPECT_EQ(streamed_mismatch(mm.path), "");
}

TEST(IoMm, TinyBudgetSpillsAndStaysIdentical) {
  const test::TempFile mm("iomm.mtx");
  const CsrMatrix m = synth::erdos_renyi(200, 150, 3000, 8);
  sparse::write_matrix_market(m, mm.path);
  // The 1024-entry budget floor spills this file twice at every chunk size.
  EXPECT_EQ(streamed_mismatch(mm.path), "");
}

TEST(IoMm, SymmetricExpansionMatchesResident) {
  const test::TempFile mm("iomm.mtx");
  write_text(mm.path,
             "%%MatrixMarket matrix coordinate real symmetric\n"
             "% lower triangle only\n"
             "4 4 5\n"
             "1 1 5.0\n"
             "2 1 2.5\n"
             "3 2 -4.0\n"
             "4 1 0.125\n"
             "4 4 1.0\n");
  EXPECT_EQ(io::read_matrix_market_streamed(mm.path).nnz(), 8);  // 2 diagonal + 3 mirrored pairs
  EXPECT_EQ(streamed_mismatch(mm.path), "");
}

TEST(IoMm, PatternMatrixMatchesResident) {
  const test::TempFile mm("iomm.mtx");
  write_text(mm.path,
             "%%MatrixMarket matrix coordinate pattern general\n"
             "3 5 3\n"
             "1 1\n"
             "2 4\n"
             "3 5\n");
  EXPECT_EQ(streamed_mismatch(mm.path), "");
}

TEST(IoMm, DuplicatesSumInArrivalOrder) {
  const test::TempFile mm("iomm.mtx");
  // 1e8f + 1.0f == 1e8f in float, so the grouping order is visible in
  // the result bits: ((1e8 + 1) + -1e8) + 1 == 1, while any regrouping
  // gives 2. The streamed path must reproduce from_coo's left-to-right
  // arrival-order sum at every chunk size and budget.
  write_text(mm.path,
             "%%MatrixMarket matrix coordinate real general\n"
             "2 2 4\n"
             "1 1 1e8\n"
             "1 1 1\n"
             "1 1 -1e8\n"
             "1 1 1\n");
  const CsrMatrix s = io::read_matrix_market_streamed(mm.path);
  ASSERT_EQ(s.nnz(), 1);
  EXPECT_FLOAT_EQ(s.values()[0], 1.0f);
  EXPECT_EQ(streamed_mismatch(mm.path), "");
}

TEST(IoMm, LongTokensAcrossWindowEdgesMatchReference) {
  const test::TempFile mm("iomm.mtx");
  // Row indices of about 70 characters and values of about 100, enough
  // of them that tokens straddle the 4096-byte window edge many times.
  std::string body = "%%MatrixMarket matrix coordinate real general\n40 30 400\n";
  for (int i = 0; i < 400; ++i) {
    const int pad = i % 37;
    body += std::string(60 + pad % 11, '0') + std::to_string(1 + i % 40) + " " +
            std::to_string(1 + (i * 7) % 30) + " " + std::string(pad, '0') +
            std::to_string(i % 9) + ".25" + std::string(96 - pad, '0') + "\n";
  }
  write_text(mm.path, body);
  EXPECT_EQ(streamed_mismatch(mm.path), "");

  // A number longer than the whole read window is refused, not split.
  write_text(mm.path, "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 " +
                          std::string(5000, '0') + "1\n");
  EXPECT_THROW(io::read_matrix_market_streamed(mm.path, {}, /*chunk_bytes=*/1), sparse::io_error);
}

TEST(IoMm, HeaderExposesDialect) {
  const test::TempFile mm("iomm.mtx");
  write_text(mm.path,
             "%%MatrixMarket matrix coordinate pattern symmetric\n"
             "6 6 2\n"
             "1 1\n"
             "3 2\n");
  io::MmChunkReader r(mm.path);
  EXPECT_EQ(r.header().rows, 6);
  EXPECT_EQ(r.header().cols, 6);
  EXPECT_EQ(r.header().declared_entries, 2);
  EXPECT_TRUE(r.header().pattern);
  EXPECT_TRUE(r.header().symmetric);
  std::vector<sparse::CooEntry> chunk;
  ASSERT_TRUE(r.next_chunk(chunk));
  while (r.next_chunk(chunk)) {
  }
  EXPECT_EQ(r.entries_emitted(), 3);  // one diagonal + one mirrored pair
}

TEST(IoMm, RejectsMalformedHeaders) {
  const test::TempFile mm("iomm.mtx");
  write_text(mm.path, "%%MatrixMarket matrix array real general\n2 2\n");
  EXPECT_THROW(io::MmChunkReader{mm.path}, sparse::io_error);
  write_text(mm.path, "%%MatrixMarket matrix coordinate real general\n");
  EXPECT_THROW(io::MmChunkReader{mm.path}, sparse::io_error);
  write_text(mm.path, "%%MatrixMarket matrix coordinate real general\n-3 2 1\n");
  EXPECT_THROW(io::MmChunkReader{mm.path}, sparse::io_error);
  EXPECT_THROW(io::MmChunkReader{test::temp_path("no_such_file.mtx")}, sparse::io_error);
}

TEST(IoMm, RejectsBadEntries) {
  const test::TempFile mm("iomm.mtx");
  // Out-of-range index.
  write_text(mm.path,
             "%%MatrixMarket matrix coordinate real general\n"
             "2 2 1\n"
             "3 1 1.0\n");
  EXPECT_THROW(io::read_matrix_market_streamed(mm.path), sparse::io_error);
  // Truncated entry list.
  write_text(mm.path,
             "%%MatrixMarket matrix coordinate real general\n"
             "2 2 3\n"
             "1 1 1.0\n");
  EXPECT_THROW(io::read_matrix_market_streamed(mm.path), sparse::io_error);
  // Garbage where a value should be.
  write_text(mm.path,
             "%%MatrixMarket matrix coordinate real general\n"
             "2 2 1\n"
             "1 1 zebra\n");
  EXPECT_THROW(io::read_matrix_market_streamed(mm.path), sparse::io_error);
}

TEST(IoMm, RrsbOfStreamedReadMatchesReference) {
  const test::TempFile mm("iomm.mtx");
  const test::TempFile rrsb("iomm.rrsb");
  const CsrMatrix m = synth::erdos_renyi(300, 80, 2400, 9);
  sparse::write_matrix_market(m, mm.path);
  io::StreamingBuildConfig cfg;
  cfg.budget_bytes = 1u << 12;
  io::write_rrsb(io::read_matrix_market_streamed(mm.path, cfg, /*chunk_bytes=*/4096), rrsb.path,
                 /*block_rows=*/64);
  EXPECT_TRUE(test::reference::bitwise_equal(io::RrsbReader(rrsb.path).read(),
                                             test::reference::read_matrix_market(mm.path)));
}

TEST(MatrixMarket, BannerParserIsExposed) {
  const io::MmBanner plain = io::parse_mm_banner("%%MatrixMarket matrix coordinate real general");
  EXPECT_FALSE(plain.pattern);
  EXPECT_FALSE(plain.symmetric);
  const io::MmBanner sym =
      io::parse_mm_banner("%%MatrixMarket matrix coordinate pattern symmetric");
  EXPECT_TRUE(sym.pattern);
  EXPECT_TRUE(sym.symmetric);
  EXPECT_THROW(io::parse_mm_banner("%%MatrixMarket matrix coordinate"), io_error);
  EXPECT_THROW(io::parse_mm_banner("%%MatrixMarket tensor coordinate real general"), io_error);
}

TEST(MatrixMarket, SizeCheckerRejectsBadDeclarations) {
  EXPECT_NO_THROW(io::check_mm_sizes(3, 4, 12));
  EXPECT_NO_THROW(io::check_mm_sizes(0, 0, 0));
  EXPECT_THROW(io::check_mm_sizes(-1, 4, 0), io_error);
  EXPECT_THROW(io::check_mm_sizes(3, -4, 0), io_error);
  EXPECT_THROW(io::check_mm_sizes(3, 4, -1), io_error);
  EXPECT_THROW(io::check_mm_sizes(3, 4, 13), io_error);  // > rows*cols
  // Dimensions past index_t must fail as a typed io_error, not wrap.
  EXPECT_THROW(io::check_mm_sizes(1LL << 40, 4, 0), io_error);
  // Huge-but-legal dimensions must not overflow the rows*cols product.
  EXPECT_NO_THROW(io::check_mm_sizes(2000000000, 2000000000, 1000000));
}

}  // namespace
}  // namespace rrspmm
