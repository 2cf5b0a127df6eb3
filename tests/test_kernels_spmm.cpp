#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <utility>
#include <vector>

#include "aspt/aspt.hpp"
#include "core/pipeline.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/spmm.hpp"
#include "kernels/spmv.hpp"
#include "sparse/permute.hpp"
#include "synth/generators.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

using sparse::CsrMatrix;
using sparse::DenseMatrix;

TEST(SpmmRowwise, MatchesDenseReferenceSmall) {
  const CsrMatrix s = test::csr({{2, 0, 1}, {0, 0, 0}, {0, 3, 0}});
  DenseMatrix x(3, 2);
  x(0, 0) = 1;
  x(0, 1) = 2;
  x(1, 0) = 3;
  x(1, 1) = 4;
  x(2, 0) = 5;
  x(2, 1) = 6;
  DenseMatrix y(3, 2);
  kernels::spmm_rowwise(s, x, y);
  EXPECT_FLOAT_EQ(y(0, 0), 2 * 1 + 1 * 5);
  EXPECT_FLOAT_EQ(y(0, 1), 2 * 2 + 1 * 6);
  EXPECT_FLOAT_EQ(y(1, 0), 0);
  EXPECT_FLOAT_EQ(y(2, 0), 3 * 3);
  EXPECT_FLOAT_EQ(y(2, 1), 3 * 4);
}

TEST(SpmmRowwise, OverwritesStaleOutput) {
  const CsrMatrix s = test::csr({{1, 0}, {0, 0}});
  DenseMatrix x(2, 1);
  x(0, 0) = 2;
  DenseMatrix y(2, 1);
  y(0, 0) = 99;
  y(1, 0) = 99;
  kernels::spmm_rowwise(s, x, y);
  EXPECT_FLOAT_EQ(y(0, 0), 2);
  EXPECT_FLOAT_EQ(y(1, 0), 0);  // empty row must be zeroed, not left stale
}

TEST(SpmmRowwise, RejectsShapeMismatch) {
  const CsrMatrix s = test::csr({{1, 0}, {0, 1}});
  DenseMatrix x(3, 4);  // wrong: S has 2 cols
  DenseMatrix y(2, 4);
  EXPECT_THROW(kernels::spmm_rowwise(s, x, y), invalid_matrix);
  DenseMatrix x2(2, 4);
  DenseMatrix y2(2, 3);  // wrong K
  EXPECT_THROW(kernels::spmm_rowwise(s, x2, y2), invalid_matrix);
}

TEST(SpmmAspt, MatchesRowwise) {
  const CsrMatrix s = synth::chung_lu(200, 150, 8.0, 2.4, 3);
  DenseMatrix x(s.cols(), 16);
  sparse::fill_random(x, 1);
  DenseMatrix y_ref(s.rows(), 16), y_aspt(s.rows(), 16);
  kernels::spmm_rowwise(s, x, y_ref);
  const auto tiled = aspt::build_aspt(s, aspt::AsptConfig{});
  kernels::spmm_aspt(tiled, x, y_aspt);
  EXPECT_LT(y_aspt.max_abs_diff(y_ref), 1e-4);
}

TEST(SpmmAspt, SparseOrderDoesNotChangeResult) {
  const CsrMatrix s = synth::erdos_renyi(128, 96, 768, 4);
  const auto tiled = aspt::build_aspt(s, aspt::AsptConfig{.panel_rows = 32,
                                                          .dense_col_threshold = 2,
                                                          .max_dense_cols = 64});
  DenseMatrix x(s.cols(), 8);
  sparse::fill_random(x, 2);
  DenseMatrix y_nat(s.rows(), 8), y_rev(s.rows(), 8);
  kernels::spmm_aspt(tiled, x, y_nat);
  std::vector<index_t> reversed(static_cast<std::size_t>(s.rows()));
  for (index_t i = 0; i < s.rows(); ++i) {
    reversed[static_cast<std::size_t>(i)] = s.rows() - 1 - i;
  }
  kernels::spmm_aspt(tiled, x, y_rev, &reversed);
  EXPECT_DOUBLE_EQ(y_nat.max_abs_diff(y_rev), 0.0);
}

TEST(SpmmAspt, FullyDenseTiling) {
  std::vector<std::vector<value_t>> rows(32, {1, 0, 2, 0, 3, 0, 0, 4});
  const CsrMatrix s = test::csr(rows);
  const auto tiled = aspt::build_aspt(s, aspt::AsptConfig{.panel_rows = 8,
                                                          .dense_col_threshold = 2,
                                                          .max_dense_cols = 1024});
  ASSERT_EQ(tiled.sparse_part().nnz(), 0);
  DenseMatrix x(8, 4);
  sparse::fill_random(x, 3);
  DenseMatrix y_ref(32, 4), y_aspt(32, 4);
  kernels::spmm_rowwise(s, x, y_ref);
  kernels::spmm_aspt(tiled, x, y_aspt);
  EXPECT_LT(y_aspt.max_abs_diff(y_ref), 1e-5);
}

TEST(SpmmAspt, EmptyMatrix) {
  const CsrMatrix s(4, 4, {0, 0, 0, 0, 0}, {}, {});
  const auto tiled = aspt::build_aspt(s, aspt::AsptConfig{});
  DenseMatrix x(4, 4);
  sparse::fill_random(x, 4);
  DenseMatrix y(4, 4);
  y.fill(7.0f);
  kernels::spmm_aspt(tiled, x, y);
  for (index_t i = 0; i < 4; ++i) {
    for (index_t j = 0; j < 4; ++j) EXPECT_FLOAT_EQ(y(i, j), 0.0f);
  }
}

// Property sweep: ASpT execution equals the dense reference across matrix
// families, K widths, and tiling configurations.
struct SpmmCase {
  const char* family;
  index_t k;
  index_t panel;
};

// Names each case by its contents ("er_k1_p8"); gtest's default prints the
// raw bytes, pointer included, so case names would change from run to run.
void PrintTo(const SpmmCase& c, std::ostream* os) {
  *os << c.family << "_k" << c.k << "_p" << c.panel;
}

class SpmmProperty : public ::testing::TestWithParam<SpmmCase> {};

TEST_P(SpmmProperty, AsptAgreesWithDenseReference) {
  const SpmmCase c = GetParam();
  CsrMatrix s;
  if (std::string(c.family) == "er") {
    s = synth::erdos_renyi(96, 80, 600, 17);
  } else if (std::string(c.family) == "banded") {
    s = synth::banded(96, 5, 0.7, 18);
  } else if (std::string(c.family) == "clustered") {
    synth::ClusteredParams p;
    p.rows = 96;
    p.cols = 80;
    p.num_groups = 6;
    p.group_cols = 16;
    p.row_nnz = 8;
    p.noise_nnz = 1;
    p.scatter = true;
    s = synth::clustered_rows(p, 19);
  } else {
    s = synth::rmat(7, 512, 20);
  }
  DenseMatrix x(s.cols(), c.k);
  sparse::fill_random(x, 21);
  const DenseMatrix y_ref = test::dense_spmm(s, x);
  const auto tiled = aspt::build_aspt(
      s, aspt::AsptConfig{.panel_rows = c.panel, .dense_col_threshold = 2, .max_dense_cols = 64});
  DenseMatrix y(s.rows(), c.k);
  kernels::spmm_aspt(tiled, x, y);
  EXPECT_LT(y.max_abs_diff(y_ref), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SpmmProperty,
    ::testing::Values(SpmmCase{"er", 1, 8}, SpmmCase{"er", 16, 32}, SpmmCase{"banded", 8, 16},
                      SpmmCase{"banded", 32, 64}, SpmmCase{"clustered", 8, 8},
                      SpmmCase{"clustered", 64, 16}, SpmmCase{"rmat", 16, 32},
                      SpmmCase{"rmat", 8, 128}));

// Threads in this process: one /proc/self/task entry each.
std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e : std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

// The whole-matrix kernels and core::run_* are the single-threaded path:
// none of them may start a thread (the multi-core path is
// runtime::parallel_* on a WorkerPool).
TEST(Kernels, WholeMatrixEntryPointsStayOnTheCallingThread) {
  if (!std::filesystem::exists("/proc/self/task")) GTEST_SKIP() << "needs /proc/self/task";
  synth::ClusteredParams p;
  p.rows = 1024;
  p.cols = 512;
  p.num_groups = 16;
  p.group_cols = 32;
  p.row_nnz = 12;
  const CsrMatrix s = synth::clustered_rows(p, 5);
  core::PipelineConfig cfg;
  cfg.threads = 1;
  const core::ExecutionPlan plan = core::build_plan(s, cfg);
  ASSERT_GT(plan.tiled.panels().size(), 1u);

  DenseMatrix x(s.cols(), 32);
  DenseMatrix yd(s.rows(), 32);
  sparse::fill_random(x, 1);
  sparse::fill_random(yd, 2);
  DenseMatrix y(s.rows(), 32);
  std::vector<value_t> out(static_cast<std::size_t>(s.nnz()));
  const std::vector<value_t> v(static_cast<std::size_t>(s.cols()), value_t{1});
  std::vector<value_t> yv;

  const std::size_t before = thread_count();
  const std::pair<const char*, std::function<void()>> calls[] = {
      {"core::run_spmm", [&] { core::run_spmm(plan, x, y); }},
      {"core::run_sddmm", [&] { core::run_sddmm(plan, s, x, yd, out.data(), out.size()); }},
      {"spmm_rowwise", [&] { kernels::spmm_rowwise(s, x, y); }},
      {"sddmm_rowwise", [&] { kernels::sddmm_rowwise(s, x, yd, out); }},
      {"spmv_rowwise", [&] { kernels::spmv_rowwise(s, v, yv); }},
  };
  for (const auto& [name, call] : calls) {
    call();
    EXPECT_LE(thread_count(), before) << name;
  }
}

}  // namespace
}  // namespace rrspmm
