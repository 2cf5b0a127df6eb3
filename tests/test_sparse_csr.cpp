#include <gtest/gtest.h>

#include <utility>

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

using sparse::CooMatrix;
using sparse::CsrMatrix;

TEST(Csr, DefaultIsEmpty) {
  CsrMatrix m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 0);
  EXPECT_EQ(m.nnz(), 0);
  EXPECT_NO_THROW(m.validate());
}

TEST(Csr, FromDenseRowsSkipsZeros) {
  const CsrMatrix m = test::csr({{1, 0, 2}, {0, 0, 0}, {0, 3, 0}});
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_EQ(m.row_nnz(0), 2);
  EXPECT_EQ(m.row_nnz(1), 0);
  EXPECT_EQ(m.row_nnz(2), 1);
  EXPECT_EQ(m.row_cols(0)[0], 0);
  EXPECT_EQ(m.row_cols(0)[1], 2);
  EXPECT_FLOAT_EQ(m.row_vals(2)[0], 3.0f);
}

TEST(Csr, FromCooSortsAndCombinesDuplicates) {
  CooMatrix coo(2, 4);
  coo.add(1, 3, 1.0f);
  coo.add(0, 2, 2.0f);
  coo.add(1, 3, 4.0f);  // duplicate, must sum
  coo.add(1, 0, 1.0f);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_EQ(m.row_cols(1)[0], 0);
  EXPECT_EQ(m.row_cols(1)[1], 3);
  EXPECT_FLOAT_EQ(m.row_vals(1)[1], 5.0f);
}

TEST(Csr, FromCooLeavesInputIntact) {
  CooMatrix coo(2, 2);
  coo.add(1, 1, 1.0f);
  coo.add(0, 0, 1.0f);
  (void)CsrMatrix::from_coo(coo);
  EXPECT_EQ(coo.entries()[0].row, 1);  // still unsorted
}

TEST(Csr, FromCooRejectsEntriesAppendedOutOfRange) {
  // entries() bypasses add()'s bounds check; from_coo must still refuse.
  for (const sparse::CooEntry e : {sparse::CooEntry{2, 0, 1.0f}, sparse::CooEntry{-1, 0, 1.0f},
                                   sparse::CooEntry{0, 2, 1.0f}, sparse::CooEntry{0, -1, 1.0f}}) {
    CooMatrix coo(2, 2);
    coo.add(1, 1, 1.0f);
    coo.entries().push_back(e);
    EXPECT_THROW((void)CsrMatrix::from_coo(std::move(coo)), sparse::invalid_matrix)
        << e.row << "," << e.col;
  }
}

TEST(Csr, RowptrIndexing) {
  // The paper's §2.1 walk-through: rowptr[i] .. rowptr[i+1]-1 bound row i.
  const CsrMatrix m = test::alg3_matrix();
  EXPECT_EQ(m.rowptr()[1], 2);  // row 0 has 2 nonzeros
  EXPECT_EQ(m.rowptr()[2] - m.rowptr()[1], 2);
  const auto cols = m.row_cols(4);
  ASSERT_EQ(cols.size(), 3u);
  EXPECT_EQ(cols[0], 0);
  EXPECT_EQ(cols[1], 3);
  EXPECT_EQ(cols[2], 4);
}

TEST(Csr, MaxRowNnz) {
  EXPECT_EQ(test::alg3_matrix().max_row_nnz(), 3);
  EXPECT_EQ(CsrMatrix().max_row_nnz(), 0);
}

TEST(Csr, ToDenseRoundTrip) {
  const std::vector<std::vector<value_t>> d = {{0, 1, 0}, {2, 0, 3}};
  EXPECT_EQ(test::csr(d).to_dense(), d);
}

TEST(Csr, EqualityIsStructuralAndNumeric) {
  const CsrMatrix a = test::csr({{1, 0}, {0, 2}});
  const CsrMatrix b = test::csr({{1, 0}, {0, 2}});
  const CsrMatrix c = test::csr({{1, 0}, {0, 3}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(CsrValidate, RejectsBadRowptrSize) {
  EXPECT_THROW(CsrMatrix(2, 2, {0, 1}, {0}, {1.0f}), invalid_matrix);
}

TEST(CsrValidate, RejectsRowptrNotStartingAtZero) {
  EXPECT_THROW(CsrMatrix(1, 2, {1, 1}, {}, {}), invalid_matrix);
}

TEST(CsrValidate, RejectsRowptrNotEndingAtNnz) {
  EXPECT_THROW(CsrMatrix(1, 2, {0, 2}, {0}, {1.0f}), invalid_matrix);
}

TEST(CsrValidate, RejectsNonMonotoneRowptr) {
  EXPECT_THROW(CsrMatrix(2, 2, {0, 2, 1}, {0, 1}, {1.0f, 1.0f}), invalid_matrix);
}

TEST(CsrValidate, RejectsOutOfRangeColumn) {
  EXPECT_THROW(CsrMatrix(1, 2, {0, 1}, {2}, {1.0f}), invalid_matrix);
}

TEST(CsrValidate, RejectsNegativeColumn) {
  EXPECT_THROW(CsrMatrix(1, 2, {0, 1}, {-1}, {1.0f}), invalid_matrix);
}

TEST(CsrValidate, RejectsUnsortedColumns) {
  EXPECT_THROW(CsrMatrix(1, 3, {0, 2}, {2, 0}, {1.0f, 1.0f}), invalid_matrix);
}

TEST(CsrValidate, RejectsDuplicateColumns) {
  EXPECT_THROW(CsrMatrix(1, 3, {0, 2}, {1, 1}, {1.0f, 1.0f}), invalid_matrix);
}

TEST(CsrValidate, RejectsValueSizeMismatch) {
  EXPECT_THROW(CsrMatrix(1, 2, {0, 1}, {0}, {1.0f, 2.0f}), invalid_matrix);
}

TEST(CsrValidate, AcceptsValidMatrix) {
  EXPECT_NO_THROW(CsrMatrix(2, 3, {0, 2, 3}, {0, 2, 1}, {1.0f, 2.0f, 3.0f}));
}

TEST(Coo, AddRejectsOutOfBounds) {
  CooMatrix coo(2, 2);
  EXPECT_THROW(coo.add(2, 0, 1.0f), invalid_matrix);
  EXPECT_THROW(coo.add(0, 2, 1.0f), invalid_matrix);
  EXPECT_THROW(coo.add(-1, 0, 1.0f), invalid_matrix);
}

TEST(Coo, SortAndCombineIsIdempotent) {
  CooMatrix coo(2, 2);
  coo.add(1, 1, 1.0f);
  coo.add(1, 1, 2.0f);
  coo.add(0, 0, 3.0f);
  coo.sort_and_combine();
  EXPECT_EQ(coo.nnz(), 2);
  coo.sort_and_combine();
  EXPECT_EQ(coo.nnz(), 2);
  EXPECT_FLOAT_EQ(coo.entries()[1].value, 3.0f);
}

TEST(CheckedIndex, ThrowsOnOverflowAndNegative) {
  EXPECT_THROW(checked_index(-1), invalid_matrix);
  EXPECT_THROW(checked_index(static_cast<std::int64_t>(INT32_MAX) + 1), invalid_matrix);
  EXPECT_EQ(checked_index(42), 42);
}

}  // namespace
}  // namespace rrspmm
