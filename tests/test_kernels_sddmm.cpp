#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "aspt/aspt.hpp"
#include "kernels/sddmm.hpp"
#include "sparse/permute.hpp"
#include "synth/generators.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

using sparse::CsrMatrix;
using sparse::DenseMatrix;

void expect_near(const std::vector<value_t>& a, const std::vector<value_t>& b, double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], tol) << "at nonzero " << i;
  }
}

TEST(SddmmRowwise, SmallHandComputedExample) {
  // S = [[2, 0], [0, 3]], Y rows [1,1] and [2,0], X rows [1,2] and [3,4].
  // O[0][0] = 2 * dot([1,1],[1,2]) = 6; O[1][1] = 3 * dot([2,0],[3,4]) = 18.
  const CsrMatrix s = test::csr({{2, 0}, {0, 3}});
  DenseMatrix x(2, 2), y(2, 2);
  x(0, 0) = 1;
  x(0, 1) = 2;
  x(1, 0) = 3;
  x(1, 1) = 4;
  y(0, 0) = 1;
  y(0, 1) = 1;
  y(1, 0) = 2;
  y(1, 1) = 0;
  std::vector<value_t> out;
  kernels::sddmm_rowwise(s, x, y, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_FLOAT_EQ(out[0], 6.0f);
  EXPECT_FLOAT_EQ(out[1], 18.0f);
}

TEST(SddmmRowwise, ScalesByTheSparseValue) {
  const CsrMatrix s = test::csr({{0.5f, 0}, {0, -2.0f}});
  DenseMatrix x(2, 1), y(2, 1);
  x(0, 0) = 4;
  x(1, 0) = 5;
  y(0, 0) = 2;
  y(1, 0) = 3;
  std::vector<value_t> out;
  kernels::sddmm_rowwise(s, x, y, out);
  EXPECT_FLOAT_EQ(out[0], 0.5f * 2 * 4);
  EXPECT_FLOAT_EQ(out[1], -2.0f * 3 * 5);
}

TEST(SddmmRowwise, MatchesDenseReference) {
  const CsrMatrix s = synth::erdos_renyi(80, 70, 500, 5);
  DenseMatrix x(s.cols(), 24), y(s.rows(), 24);
  sparse::fill_random(x, 1);
  sparse::fill_random(y, 2);
  std::vector<value_t> out;
  kernels::sddmm_rowwise(s, x, y, out);
  expect_near(out, test::dense_sddmm(s, x, y), 1e-4);
}

// `out` is sized, not zero-filled: the kernel must write every slot, so
// stale contents (NaN here) never survive on any backend.
TEST(SddmmRowwise, OverwritesStaleOutputOnEveryBackend) {
  const CsrMatrix s = synth::erdos_renyi(80, 70, 500, 7);
  DenseMatrix x(s.cols(), 20), y(s.rows(), 20);
  sparse::fill_random(x, 3);
  sparse::fill_random(y, 4);
  const std::vector<value_t> ref = test::dense_sddmm(s, x, y);
  for (int i = 0; i < static_cast<int>(kernels::simd::kIsaCount); ++i) {
    const auto isa = static_cast<kernels::simd::Isa>(i);
    if (!kernels::simd::isa_supported(isa)) continue;
    SCOPED_TRACE(std::string(kernels::simd::isa_name(isa)));
    kernels::simd::KernelConfig cfg;
    cfg.isa = isa;
    std::vector<value_t> out(static_cast<std::size_t>(s.nnz()),
                             std::numeric_limits<value_t>::quiet_NaN());
    kernels::sddmm_rowwise(s, x, y, out, cfg);
    expect_near(out, ref, 1e-4);
  }
}

TEST(SddmmRowwise, RejectsShapeMismatch) {
  const CsrMatrix s = test::csr({{1, 0}, {0, 1}});
  std::vector<value_t> out;
  DenseMatrix x(2, 4), y_bad(3, 4);
  EXPECT_THROW(kernels::sddmm_rowwise(s, x, y_bad, out), invalid_matrix);
  DenseMatrix y(2, 4), x_badk(2, 5);
  EXPECT_THROW(kernels::sddmm_rowwise(s, x_badk, y, out), invalid_matrix);
}

TEST(SddmmAspt, MatchesRowwiseWithSourceAlignment) {
  const CsrMatrix s = synth::chung_lu(150, 120, 9.0, 2.2, 6);
  DenseMatrix x(s.cols(), 16), y(s.rows(), 16);
  sparse::fill_random(x, 3);
  sparse::fill_random(y, 4);
  std::vector<value_t> ref, out;
  kernels::sddmm_rowwise(s, x, y, ref);
  const auto tiled = aspt::build_aspt(s, aspt::AsptConfig{.panel_rows = 32,
                                                          .dense_col_threshold = 2,
                                                          .max_dense_cols = 128});
  kernels::sddmm_aspt(tiled, x, y, out);
  expect_near(out, ref, 1e-4);
}

TEST(SddmmAspt, SparseOrderDoesNotChangeResult) {
  const CsrMatrix s = synth::erdos_renyi(96, 96, 600, 7);
  const auto tiled = aspt::build_aspt(s, aspt::AsptConfig{});
  DenseMatrix x(s.cols(), 8), y(s.rows(), 8);
  sparse::fill_random(x, 5);
  sparse::fill_random(y, 6);
  std::vector<value_t> nat, rev;
  kernels::sddmm_aspt(tiled, x, y, nat);
  std::vector<index_t> reversed(static_cast<std::size_t>(s.rows()));
  for (index_t i = 0; i < s.rows(); ++i) {
    reversed[static_cast<std::size_t>(i)] = s.rows() - 1 - i;
  }
  kernels::sddmm_aspt(tiled, x, y, rev, &reversed);
  expect_near(nat, rev, 0.0);
}

TEST(SddmmAspt, FullyDenseTiling) {
  std::vector<std::vector<value_t>> rows(24, {1, 0, 2, 0, 0, 3});
  const CsrMatrix s = test::csr(rows);
  const auto tiled = aspt::build_aspt(s, aspt::AsptConfig{.panel_rows = 8,
                                                          .dense_col_threshold = 2,
                                                          .max_dense_cols = 1024});
  ASSERT_EQ(tiled.sparse_part().nnz(), 0);
  DenseMatrix x(6, 8), y(24, 8);
  sparse::fill_random(x, 7);
  sparse::fill_random(y, 8);
  std::vector<value_t> ref, out;
  kernels::sddmm_rowwise(s, x, y, ref);
  kernels::sddmm_aspt(tiled, x, y, out);
  expect_near(out, ref, 1e-5);
}

// Property sweep across families/K/panel sizes against the dense reference.
struct SddmmCase {
  const char* family;
  index_t k;
  index_t panel;
};

// Names each case by its contents ("er_k1_p16"); gtest's default prints the
// raw bytes, pointer included, so case names would change from run to run.
void PrintTo(const SddmmCase& c, std::ostream* os) {
  *os << c.family << "_k" << c.k << "_p" << c.panel;
}

class SddmmProperty : public ::testing::TestWithParam<SddmmCase> {};

TEST_P(SddmmProperty, AsptAgreesWithDenseReference) {
  const SddmmCase c = GetParam();
  CsrMatrix s;
  if (std::string(c.family) == "er") {
    s = synth::erdos_renyi(90, 75, 500, 30);
  } else if (std::string(c.family) == "banded") {
    s = synth::banded(90, 4, 0.8, 31);
  } else {
    s = synth::rmat(7, 600, 32);
  }
  DenseMatrix x(s.cols(), c.k), y(s.rows(), c.k);
  sparse::fill_random(x, 33);
  sparse::fill_random(y, 34);
  const auto ref = test::dense_sddmm(s, x, y);
  const auto tiled = aspt::build_aspt(
      s, aspt::AsptConfig{.panel_rows = c.panel, .dense_col_threshold = 2, .max_dense_cols = 64});
  std::vector<value_t> out;
  kernels::sddmm_aspt(tiled, x, y, out);
  expect_near(out, ref, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Cases, SddmmProperty,
                         ::testing::Values(SddmmCase{"er", 1, 16}, SddmmCase{"er", 32, 8},
                                           SddmmCase{"banded", 8, 32}, SddmmCase{"banded", 16, 64},
                                           SddmmCase{"rmat", 8, 16}, SddmmCase{"rmat", 64, 32}));

}  // namespace
}  // namespace rrspmm
