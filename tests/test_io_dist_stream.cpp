// Streaming shard execution tests: plans cut from the .rrsb index must
// cover the row space at block boundaries with balanced nonzeros, and
// sharded_spmm_stream must equal the resident row-wise kernel bit for
// bit — sequentially, on a pool, and with more devices than blocks.
#include <gtest/gtest.h>

#include <string>

#include "dist/stream.hpp"
#include "io/rrsb.hpp"
#include "kernels/spmm.hpp"
#include "runtime/worker_pool.hpp"
#include "synth/generators.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

using sparse::CsrMatrix;
using sparse::DenseMatrix;

DenseMatrix dense_x(index_t rows, index_t cols) {
  DenseMatrix x(rows, cols);
  for (index_t i = 0; i < rows; ++i) {
    for (index_t k = 0; k < cols; ++k) {
      x(i, k) = static_cast<value_t>(((i * 31 + k * 7) % 13) - 6) * 0.25f;
    }
  }
  return x;
}

TEST(IoDist, PlanCoversRowsAtBlockBoundaries) {
  const test::TempFile file("iodist.rrsb");
  const CsrMatrix m = synth::chung_lu(300, 120, 9.0, 2.3, 11);
  io::write_rrsb(m, file.path, 32);
  const io::RrsbReader shard(file.path);
  for (const int devices : {1, 2, 3, 7}) {
    const core::ShardPlan plan = dist::plan_stream_rows(shard, devices);
    EXPECT_NO_THROW(plan.validate());
    ASSERT_EQ(static_cast<int>(plan.row_shards.size()), devices);
    offset_t nnz = 0;
    for (const core::RowShard& s : plan.row_shards) {
      EXPECT_EQ(s.row_begin % 32, 0);  // cuts only at block boundaries
      nnz += s.nnz;
    }
    EXPECT_EQ(plan.row_shards.front().row_begin, 0);
    EXPECT_EQ(plan.row_shards.back().row_end, m.rows());
    EXPECT_EQ(nnz, m.nnz());
  }
}

TEST(IoDist, PlanBalancesNnzAcrossDevices) {
  const test::TempFile file("iodist.rrsb");
  const CsrMatrix m = synth::erdos_renyi(4096, 256, 32768, 12);
  io::write_rrsb(m, file.path, 64);
  const io::RrsbReader shard(file.path);
  const core::ShardPlan plan = dist::plan_stream_rows(shard, 4);
  // Uniform nnz and 64 cut points: every shard within 2 blocks' worth
  // of the ideal quarter.
  const offset_t ideal = m.nnz() / 4;
  const offset_t slack = 2 * (m.nnz() / 64 + 1);
  for (const core::RowShard& s : plan.row_shards) {
    EXPECT_NEAR(static_cast<double>(s.nnz), static_cast<double>(ideal),
                static_cast<double>(slack));
  }
}

TEST(IoDist, StreamedSpmmMatchesResidentKernel) {
  const test::TempFile file("iodist.rrsb");
  const CsrMatrix m = synth::chung_lu(257, 96, 8.0, 2.4, 13);
  io::write_rrsb(m, file.path, 32);
  const io::RrsbReader shard(file.path);
  const DenseMatrix x = dense_x(m.cols(), 17);

  DenseMatrix want(m.rows(), x.cols());
  kernels::spmm_rowwise(m, x, want);

  for (const int devices : {1, 3, 5}) {
    const core::ShardPlan plan = dist::plan_stream_rows(shard, devices);
    // Packed and padded-ld outputs: shards write through y's stride.
    for (const bool padded : {false, true}) {
      DenseMatrix y =
          padded ? DenseMatrix::aligned(m.rows(), x.cols()) : DenseMatrix(m.rows(), x.cols());
      ASSERT_EQ(y.padded(), padded);
      dist::sharded_spmm_stream(shard, x, y, plan);
      for (index_t i = 0; i < m.rows(); ++i) {
        for (index_t k = 0; k < x.cols(); ++k) {
          ASSERT_EQ(y(i, k), want(i, k))
              << "row " << i << " k " << k << " devices " << devices << " padded " << padded;
        }
      }
    }
  }
}

TEST(IoDist, PooledExecutionIsBitwiseEqual) {
  const test::TempFile file("iodist.rrsb");
  const CsrMatrix m = synth::erdos_renyi(500, 80, 6000, 14);
  io::write_rrsb(m, file.path, 64);
  const io::RrsbReader shard(file.path);
  const DenseMatrix x = dense_x(m.cols(), 9);
  const core::ShardPlan plan = dist::plan_stream_rows(shard, 4);

  DenseMatrix seq(m.rows(), x.cols());
  dist::sharded_spmm_stream(shard, x, seq, plan, nullptr);
  runtime::WorkerPool pool(3);
  DenseMatrix par(m.rows(), x.cols());
  dist::sharded_spmm_stream(shard, x, par, plan, &pool);
  for (index_t i = 0; i < m.rows(); ++i) {
    for (index_t k = 0; k < x.cols(); ++k) {
      ASSERT_EQ(par(i, k), seq(i, k)) << "row " << i << " k " << k;
    }
  }
}

TEST(IoDist, MoreDevicesThanBlocksLeavesEmptyShards) {
  const test::TempFile file("iodist.rrsb");
  const CsrMatrix m = synth::erdos_renyi(40, 20, 200, 15);
  io::write_rrsb(m, file.path, 32);  // 2 blocks
  const io::RrsbReader shard(file.path);
  const core::ShardPlan plan = dist::plan_stream_rows(shard, 6);
  EXPECT_NO_THROW(plan.validate());

  const DenseMatrix x = dense_x(m.cols(), 5);
  DenseMatrix want(m.rows(), x.cols());
  kernels::spmm_rowwise(m, x, want);
  DenseMatrix y(m.rows(), x.cols());
  dist::sharded_spmm_stream(shard, x, y, plan);
  for (index_t i = 0; i < m.rows(); ++i) {
    for (index_t k = 0; k < x.cols(); ++k) {
      ASSERT_EQ(y(i, k), want(i, k));
    }
  }
}

TEST(IoDist, RejectsMismatchedOperandsAndPlans) {
  const test::TempFile file("iodist.rrsb");
  const CsrMatrix m = synth::erdos_renyi(64, 32, 300, 16);
  io::write_rrsb(m, file.path, 32);
  const io::RrsbReader shard(file.path);
  const core::ShardPlan plan = dist::plan_stream_rows(shard, 2);

  DenseMatrix x(m.cols(), 4), y(m.rows(), 4);
  DenseMatrix bad_x(m.cols() + 1, 4), bad_y(m.rows(), 5);
  EXPECT_THROW(dist::sharded_spmm_stream(shard, bad_x, y, plan), sparse::invalid_matrix);
  EXPECT_THROW(dist::sharded_spmm_stream(shard, x, bad_y, plan), sparse::invalid_matrix);
  EXPECT_THROW(dist::plan_stream_rows(shard, 0), sparse::invalid_matrix);

  core::ShardPlan wide_plan = plan;
  wide_plan.cols += 1;
  EXPECT_THROW(dist::sharded_spmm_stream(shard, x, y, wide_plan), sparse::invalid_matrix);
}

}  // namespace
}  // namespace rrspmm
