#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "io/mm_stream.hpp"
#include "sparse/io_mm.hpp"
#include "synth/generators.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

using sparse::CsrMatrix;

TEST(MatrixMarket, WriteReadRoundTrip) {
  const CsrMatrix m = synth::erdos_renyi(40, 30, 200, 5);
  std::stringstream ss;
  sparse::write_matrix_market(m, ss);
  const CsrMatrix back = sparse::read_matrix_market(ss);
  EXPECT_EQ(back.rows(), m.rows());
  EXPECT_EQ(back.cols(), m.cols());
  EXPECT_EQ(back.nnz(), m.nnz());
  EXPECT_EQ(back.colidx(), m.colidx());
  for (std::size_t i = 0; i < back.values().size(); ++i) {
    EXPECT_NEAR(back.values()[i], m.values()[i], 1e-5);
  }
}

TEST(MatrixMarket, ReadsPatternMatrices) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "% a comment\n"
      "3 4 2\n"
      "1 1\n"
      "3 4\n");
  const CsrMatrix m = sparse::read_matrix_market(ss);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_FLOAT_EQ(m.row_vals(0)[0], 1.0f);  // pattern entries become 1.0
  EXPECT_EQ(m.row_cols(2)[0], 3);
}

TEST(MatrixMarket, ExpandsSymmetricStorage) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 3\n"
      "1 1 5.0\n"
      "2 1 2.0\n"
      "3 2 4.0\n");
  const CsrMatrix m = sparse::read_matrix_market(ss);
  EXPECT_EQ(m.nnz(), 5);  // diagonal stays single, off-diagonals mirror
  EXPECT_FLOAT_EQ(m.to_dense()[0][1], 2.0f);
  EXPECT_FLOAT_EQ(m.to_dense()[1][0], 2.0f);
  EXPECT_FLOAT_EQ(m.to_dense()[1][2], 4.0f);
}

TEST(MatrixMarket, SkipsCommentLines) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "% comment one\n"
      "%comment two\n"
      "2 2 1\n"
      "2 2 7.5\n");
  const CsrMatrix m = sparse::read_matrix_market(ss);
  EXPECT_EQ(m.nnz(), 1);
  EXPECT_FLOAT_EQ(m.row_vals(1)[0], 7.5f);
}

TEST(MatrixMarket, RejectsBadBanner) {
  std::stringstream ss("%%NotMatrixMarket matrix coordinate real general\n1 1 0\n");
  EXPECT_THROW(sparse::read_matrix_market(ss), io_error);
}

TEST(MatrixMarket, RejectsUnsupportedFormat) {
  std::stringstream ss("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n");
  EXPECT_THROW(sparse::read_matrix_market(ss), io_error);
}

TEST(MatrixMarket, RejectsUnsupportedField) {
  std::stringstream ss("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n");
  EXPECT_THROW(sparse::read_matrix_market(ss), io_error);
}

TEST(MatrixMarket, RejectsTruncatedEntries) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 1.0\n");
  EXPECT_THROW(sparse::read_matrix_market(ss), io_error);
}

// Size lines whose entry count the file does not hold: the reader must
// fail on the missing entries with a typed error, never allocate from the
// declared count (4e18 overflows the vector, 5e17 exhausts memory).
TEST(MatrixMarket, HostileEntryCountRaisesIoError) {
  for (const char* size_line :
       {"2000000000 2000000000 4000000000000000000\n", "2000000000 2000000000 500000000000000000\n"}) {
    const std::string text =
        std::string("%%MatrixMarket matrix coordinate real general\n") + size_line + "1 1 1.0\n";
    std::stringstream ss(text);
    EXPECT_THROW(sparse::read_matrix_market(ss), io_error) << size_line;

    const test::TempFile f("hostile_count.mtx");
    {
      std::ofstream out(f.path);
      out << text;
    }
    EXPECT_THROW(io::read_matrix_market_streamed(f.path), io_error) << size_line;
  }
}

TEST(MatrixMarket, RejectsEmptyStream) {
  std::stringstream ss("");
  EXPECT_THROW(sparse::read_matrix_market(ss), io_error);
}

TEST(MatrixMarket, RejectsMissingFile) {
  EXPECT_THROW(sparse::read_matrix_market("/nonexistent/path.mtx"), io_error);
}

TEST(MatrixMarket, BannerParserIsExposed) {
  const sparse::MmBanner plain =
      sparse::parse_mm_banner("%%MatrixMarket matrix coordinate real general");
  EXPECT_FALSE(plain.pattern);
  EXPECT_FALSE(plain.symmetric);
  const sparse::MmBanner sym =
      sparse::parse_mm_banner("%%MatrixMarket matrix coordinate pattern symmetric");
  EXPECT_TRUE(sym.pattern);
  EXPECT_TRUE(sym.symmetric);
  EXPECT_THROW(sparse::parse_mm_banner("%%MatrixMarket matrix coordinate"), io_error);
  EXPECT_THROW(sparse::parse_mm_banner("%%MatrixMarket tensor coordinate real general"),
               io_error);
}

TEST(MatrixMarket, SizeCheckerRejectsBadDeclarations) {
  EXPECT_NO_THROW(sparse::check_mm_sizes(3, 4, 12));
  EXPECT_NO_THROW(sparse::check_mm_sizes(0, 0, 0));
  EXPECT_THROW(sparse::check_mm_sizes(-1, 4, 0), io_error);
  EXPECT_THROW(sparse::check_mm_sizes(3, -4, 0), io_error);
  EXPECT_THROW(sparse::check_mm_sizes(3, 4, -1), io_error);
  EXPECT_THROW(sparse::check_mm_sizes(3, 4, 13), io_error);  // > rows*cols
  // Dimensions past index_t must fail as a typed io_error, not wrap.
  EXPECT_THROW(sparse::check_mm_sizes(1LL << 40, 4, 0), io_error);
  // Huge-but-legal dimensions must not overflow the rows*cols product.
  EXPECT_NO_THROW(sparse::check_mm_sizes(2000000000, 2000000000, 1000000));
}

TEST(MatrixMarket, RejectsEntriesExceedingDimensionProduct) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 5\n"
      "1 1 1\n1 2 1\n2 1 1\n2 2 1\n1 1 1\n");
  EXPECT_THROW(sparse::read_matrix_market(ss), io_error);
}

TEST(MatrixMarket, RejectsMissingSizeLine) {
  std::stringstream ss("%%MatrixMarket matrix coordinate real general\n% only comments\n");
  EXPECT_THROW(sparse::read_matrix_market(ss), io_error);
}

TEST(MatrixMarket, ReportsOutOfRangeEntryWithOrdinal) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 2\n"
      "1 1 1.0\n"
      "4 1 1.0\n");
  try {
    sparse::read_matrix_market(ss);
    FAIL() << "expected io_error";
  } catch (const io_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("entry 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("out of range"), std::string::npos) << msg;
  }
}

TEST(MatrixMarket, RejectsGarbageValues) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "1 1 pancake\n");
  EXPECT_THROW(sparse::read_matrix_market(ss), io_error);
}

TEST(MatrixMarket, SymmetricMirrorsUpperTriangleEntriesOnce) {
  // Symmetric files conventionally store the lower triangle, but an
  // upper-triangle entry mirrors exactly once rather than doubling.
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 1\n"
      "1 3 1.0\n");
  const CsrMatrix m = sparse::read_matrix_market(ss);
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
