// Matrix Market tests: the writer, and the dialect and hardening of the
// library's one reader, io::read_matrix_market_streamed. Every file it
// accepts is also read by the reference parser (mm_reference.hpp) and
// must match it bit for bit at every chunk size and staging budget.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "io/mm_stream.hpp"
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

/// Reads `path` after checking the streamed reader against the reference.
CsrMatrix read_checked(const std::string& path) {
  EXPECT_EQ(test::reference::streamed_mismatch(path), "");
  return io::read_matrix_market_streamed(path);
}

/// Expects `text` to be rejected with a typed io_error.
void expect_rejected(const std::string& text) {
  const test::TempFile f("rejected.mtx");
  write_text(f.path, text);
  EXPECT_THROW(io::read_matrix_market_streamed(f.path), io_error) << text;
}

TEST(MatrixMarket, WriteReadRoundTrip) {
  const test::TempFile f("roundtrip.mtx");
  const CsrMatrix m = synth::erdos_renyi(40, 30, 200, 5);
  sparse::write_matrix_market(m, f.path);
  const CsrMatrix back = read_checked(f.path);
  EXPECT_EQ(back.rows(), m.rows());
  EXPECT_EQ(back.cols(), m.cols());
  EXPECT_EQ(back.nnz(), m.nnz());
  EXPECT_EQ(back.colidx(), m.colidx());
  for (std::size_t i = 0; i < back.values().size(); ++i) {
    EXPECT_NEAR(back.values()[i], m.values()[i], 1e-5);
  }
}

TEST(MatrixMarket, ReadsPatternMatrices) {
  const test::TempFile f("pattern.mtx");
  write_text(f.path,
             "%%MatrixMarket matrix coordinate pattern general\n"
             "% a comment\n"
             "3 4 2\n"
             "1 1\n"
             "3 4\n");
  const CsrMatrix m = read_checked(f.path);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_FLOAT_EQ(m.row_vals(0)[0], 1.0f);  // pattern entries become 1.0
  EXPECT_EQ(m.row_cols(2)[0], 3);
}

TEST(MatrixMarket, ReadsIntegerMatrices) {
  const test::TempFile f("integer.mtx");
  write_text(f.path,
             "%%MatrixMarket matrix coordinate integer general\n"
             "2 3 3\n"
             "1 1 7\n"
             "2 3 -12\n"
             "1 2 16777217\n");  // not representable in float: rounds like the reference
  const CsrMatrix m = read_checked(f.path);
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_FLOAT_EQ(m.to_dense()[1][2], -12.0f);
}

TEST(MatrixMarket, ExpandsSymmetricStorage) {
  const test::TempFile f("symmetric.mtx");
  write_text(f.path,
             "%%MatrixMarket matrix coordinate real symmetric\n"
             "3 3 3\n"
             "1 1 5.0\n"
             "2 1 2.0\n"
             "3 2 4.0\n");
  const CsrMatrix m = read_checked(f.path);
  EXPECT_EQ(m.nnz(), 5);  // diagonal stays single, off-diagonals mirror
  EXPECT_FLOAT_EQ(m.to_dense()[0][1], 2.0f);
  EXPECT_FLOAT_EQ(m.to_dense()[1][0], 2.0f);
  EXPECT_FLOAT_EQ(m.to_dense()[1][2], 4.0f);
}

TEST(MatrixMarket, SkipsCommentLines) {
  const test::TempFile f("comments.mtx");
  write_text(f.path,
             "%%MatrixMarket matrix coordinate real general\n"
             "% comment one\n"
             "%comment two\n"
             "2 2 1\n"
             "2 2 7.5\n");
  const CsrMatrix m = read_checked(f.path);
  EXPECT_EQ(m.nnz(), 1);
  EXPECT_FLOAT_EQ(m.row_vals(1)[0], 7.5f);
}

TEST(MatrixMarket, RejectsBadBanner) {
  expect_rejected("%%NotMatrixMarket matrix coordinate real general\n1 1 0\n");
}

TEST(MatrixMarket, RejectsUnsupportedFormat) {
  expect_rejected("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n");
}

TEST(MatrixMarket, RejectsUnsupportedField) {
  expect_rejected("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n");
}

TEST(MatrixMarket, RejectsTruncatedEntries) {
  expect_rejected(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 1.0\n");
}

// Size lines whose entry count the file does not hold: the reader must
// fail on the missing entries with a typed error, never allocate from the
// declared count (4e18 overflows a vector, 5e17 exhausts memory).
TEST(MatrixMarket, HostileEntryCountRaisesIoError) {
  for (const char* size_line :
       {"2000000000 2000000000 4000000000000000000\n", "2000000000 2000000000 500000000000000000\n"}) {
    expect_rejected(std::string("%%MatrixMarket matrix coordinate real general\n") + size_line +
                    "1 1 1.0\n");
  }
}

// Entry (1,5) is in range as written, but its mirror (5,1) is not: a
// symmetric header must be square, or the mirrors index past the rows.
TEST(MatrixMarket, RejectsNonSquareSymmetric) {
  expect_rejected(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "2 5 1\n"
      "1 5 1.0\n");
  expect_rejected(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "5 2 0\n");
}

TEST(MatrixMarket, RejectsEmptyStream) { expect_rejected(""); }

TEST(MatrixMarket, RejectsMissingFile) {
  EXPECT_THROW(io::read_matrix_market_streamed("/nonexistent/path.mtx"), io_error);
}

TEST(MatrixMarket, RejectsEntriesExceedingDimensionProduct) {
  expect_rejected(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 5\n"
      "1 1 1\n1 2 1\n2 1 1\n2 2 1\n1 1 1\n");
}

TEST(MatrixMarket, RejectsMissingSizeLine) {
  expect_rejected("%%MatrixMarket matrix coordinate real general\n% only comments\n");
}

TEST(MatrixMarket, ReportsOutOfRangeEntryWithOrdinal) {
  const test::TempFile f("out_of_range.mtx");
  write_text(f.path,
             "%%MatrixMarket matrix coordinate real general\n"
             "3 3 2\n"
             "1 1 1.0\n"
             "4 1 1.0\n");
  try {
    io::read_matrix_market_streamed(f.path);
    FAIL() << "expected io_error";
  } catch (const io_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("entry 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("out of range"), std::string::npos) << msg;
  }
}

TEST(MatrixMarket, RejectsGarbageValues) {
  expect_rejected(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "1 1 pancake\n");
}

// Number spellings at the edge of the dialect: the reader accepts the
// ones istream extraction (the reference) accepts, with the same bits,
// and rejects the ones it rejects.
TEST(MatrixMarket, NumbersReadAsTheReferenceReadsThem) {
  const std::string head = "%%MatrixMarket matrix coordinate real general\n3 3 2\n";
  for (const char* entry : {"+2 1 +1.5", "2 +1 .5", "02 1 1.", "2 1 -0", "2 1 1e+3", "2 1 1e-40",
                            "2 1 4.9e-324", "2 1 1e-400", "2 1 -1e-46"}) {
    const test::TempFile f("edge.mtx");
    write_text(f.path, head + "1 1 1\n" + entry + "\n");
    EXPECT_EQ(test::reference::streamed_mismatch(f.path), "") << entry;
  }
  for (const char* entry : {"2 1 nan", "2 1 inf", "2 1 -inf", "2 1 1.5e", "2 1 1e400", "2.0 1 1",
                            "2 1 +-1", "2 1 ++1", "2 1 + 1"}) {
    expect_rejected(head + "1 1 1\n" + entry + "\n");
  }
}

TEST(MatrixMarket, SymmetricMirrorsUpperTriangleEntriesOnce) {
  // Symmetric files conventionally store the lower triangle, but an
  // upper-triangle entry mirrors exactly once rather than doubling.
  const test::TempFile f("upper.mtx");
  write_text(f.path,
             "%%MatrixMarket matrix coordinate real symmetric\n"
             "3 3 1\n"
             "1 3 1.0\n");
  const CsrMatrix m = read_checked(f.path);
  EXPECT_EQ(m.nnz(), 2);  // mirrored exactly once either way
  EXPECT_FLOAT_EQ(m.to_dense()[0][2], 1.0f);
  EXPECT_FLOAT_EQ(m.to_dense()[2][0], 1.0f);
}

TEST(MatrixMarket, OneBasedIndicesOnDisk) {
  const CsrMatrix m = test::csr({{0, 3}, {0, 0}});
  std::stringstream ss;
  sparse::write_matrix_market(m, ss);
  std::string banner, sizes, entry;
  std::getline(ss, banner);
  std::getline(ss, sizes);
  std::getline(ss, entry);
  EXPECT_EQ(sizes, "2 2 1");
  EXPECT_EQ(entry.substr(0, 4), "1 2 ");  // (0,1) written 1-based
}

}  // namespace
}  // namespace rrspmm
