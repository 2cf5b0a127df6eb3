#include <gtest/gtest.h>

#include <cstdint>

#include "sparse/dense.hpp"

namespace rrspmm {
namespace {

using sparse::DenseMatrix;

TEST(Dense, DefaultIsEmpty) {
  DenseMatrix m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 0);
  EXPECT_EQ(m.size(), 0u);
}

TEST(Dense, ConstructZeroInitialised) {
  DenseMatrix m(3, 4);
  EXPECT_EQ(m.size(), 12u);
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 4; ++j) EXPECT_FLOAT_EQ(m(i, j), 0.0f);
  }
}

TEST(Dense, ConstructFromDataChecksSize) {
  EXPECT_NO_THROW(DenseMatrix(2, 2, {1, 2, 3, 4}));
  EXPECT_THROW(DenseMatrix(2, 2, {1, 2, 3}), invalid_matrix);
}

TEST(Dense, RejectsNegativeDimensions) {
  EXPECT_THROW(DenseMatrix(-1, 2), invalid_matrix);
  EXPECT_THROW(DenseMatrix(2, -1), invalid_matrix);
}

TEST(Dense, UninitializedIsPackedAndWritable) {
  DenseMatrix m = DenseMatrix::uninitialized(3, 5);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 5);
  EXPECT_EQ(m.ld(), 5);
  EXPECT_FALSE(m.padded());
  m.fill(1.5f);
  const DenseMatrix copy = m;
  EXPECT_DOUBLE_EQ(copy.max_abs_diff(DenseMatrix(3, 5, std::vector<value_t>(15, 1.5f))), 0.0);
  EXPECT_THROW(DenseMatrix::uninitialized(-1, 2), invalid_matrix);
}

TEST(Dense, RowSpanIsContiguousView) {
  DenseMatrix m(2, 3, {1, 2, 3, 4, 5, 6});
  auto r1 = m.row(1);
  ASSERT_EQ(r1.size(), 3u);
  EXPECT_FLOAT_EQ(r1[0], 4.0f);
  r1[2] = 9.0f;
  EXPECT_FLOAT_EQ(m(1, 2), 9.0f);
}

TEST(Dense, FillSetsEverything) {
  DenseMatrix m(4, 4);
  m.fill(2.5f);
  for (index_t i = 0; i < 4; ++i) {
    for (index_t j = 0; j < 4; ++j) EXPECT_FLOAT_EQ(m(i, j), 2.5f);
  }
}

TEST(Dense, MaxAbsDiff) {
  DenseMatrix a(2, 2, {1, 2, 3, 4});
  DenseMatrix b(2, 2, {1, 2, 3.5f, 4});
  EXPECT_FLOAT_EQ(static_cast<float>(a.max_abs_diff(b)), 0.5f);
  EXPECT_DOUBLE_EQ(a.max_abs_diff(a), 0.0);
  DenseMatrix c(2, 3);
  EXPECT_THROW(a.max_abs_diff(c), invalid_matrix);
}

TEST(Dense, FillRandomIsDeterministicAndInRange) {
  DenseMatrix a(16, 16), b(16, 16), c(16, 16);
  sparse::fill_random(a, 7);
  sparse::fill_random(b, 7);
  sparse::fill_random(c, 8);
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 0.0);
  EXPECT_GT(a.max_abs_diff(c), 0.0);
  for (index_t i = 0; i < 16; ++i) {
    for (value_t v : a.row(i)) {
      EXPECT_GE(v, -1.0f);
      EXPECT_LT(v, 1.0f);
    }
  }
}

TEST(DenseAligned, PadsLeadingDimensionToAlignment) {
  const DenseMatrix m = DenseMatrix::aligned(3, 5);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 5);
  EXPECT_GE(m.ld(), 5);
  EXPECT_TRUE(m.padded());
  EXPECT_EQ(m.size(), 15u);  // logical size excludes padding
  const auto align = sparse::kDenseAlignBytes;
  EXPECT_EQ(static_cast<std::size_t>(m.ld()) * sizeof(value_t) % align, 0u);
  for (index_t i = 0; i < m.rows(); ++i) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.row(i).data()) % align, 0u);
  }
}

TEST(DenseAligned, PackedWhenColsAlreadyAligned) {
  const DenseMatrix m = DenseMatrix::aligned(4, 16);
  EXPECT_EQ(m.ld(), 16);
  EXPECT_FALSE(m.padded());
}

TEST(DenseAligned, RowSpanHasLogicalWidth) {
  DenseMatrix m = DenseMatrix::aligned(2, 3);
  EXPECT_EQ(m.row(0).size(), 3u);
  m(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(m.row(1)[2], 5.0f);
}

TEST(DenseAligned, FillRandomMatchesPackedElementwise) {
  DenseMatrix packed(7, 5);
  DenseMatrix padded = DenseMatrix::aligned(7, 5);
  sparse::fill_random(packed, 11);
  sparse::fill_random(padded, 11);
  EXPECT_DOUBLE_EQ(packed.max_abs_diff(padded), 0.0);
}

TEST(DenseAligned, FillAndMaxAbsDiffIgnorePadding) {
  DenseMatrix padded = DenseMatrix::aligned(4, 3);
  padded.fill(2.0f);
  DenseMatrix packed(4, 3);
  packed.fill(2.0f);
  EXPECT_DOUBLE_EQ(padded.max_abs_diff(packed), 0.0);
  // Padding lanes stay zero after fill (kernels rely on that for aligned
  // vector stores never leaking into the next row's data).
  for (index_t i = 0; i < padded.rows(); ++i) {
    const value_t* r = padded.data() + static_cast<std::size_t>(i) * padded.ld();
    for (index_t j = padded.cols(); j < padded.ld(); ++j) {
      EXPECT_FLOAT_EQ(r[j], 0.0f);
    }
  }
}

TEST(Dense, FillRandomIsRoughlyCentred) {
  DenseMatrix m(64, 64);
  sparse::fill_random(m, 9);
  double sum = 0.0;
  for (index_t i = 0; i < 64; ++i) {
    for (value_t v : m.row(i)) sum += v;
  }
  EXPECT_LT(std::abs(sum / (64.0 * 64.0)), 0.05);
}

}  // namespace
}  // namespace rrspmm
