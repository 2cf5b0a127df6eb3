// The functional SIMT executor closes the validation loop:
//   1. its kernels must compute exactly what the host CPU kernels
//      compute (same strategy, same arithmetic order per warp), and
//   2. its recorded traffic must match the analytic simulators access
//      for access (same interleaving, same L2).
#include <gtest/gtest.h>

#include "gpusim/traffic.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/spmm.hpp"
#include "simt/kernels.hpp"
#include "sparse/permute.hpp"
#include "synth/generators.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

using gpusim::DeviceConfig;
using simt::TrafficCounters;
using sparse::CsrMatrix;
using sparse::DenseMatrix;

DeviceConfig small_device() {
  DeviceConfig dev;
  dev.num_sms = 2;
  dev.blocks_per_sm = 3;
  dev.warps_per_block = 4;
  dev.l2_bytes = 24 * 64 * 4;  // 24 rows at K=64
  return dev;
}

void expect_traffic_equal(const TrafficCounters& simt_t, const gpusim::SimResult& model,
                          bool include_y_space = false) {
  (void)include_y_space;
  EXPECT_EQ(simt_t.accesses, model.x_accesses);
  EXPECT_EQ(simt_t.l2_hits, model.x_l2_hits);
  EXPECT_EQ(simt_t.shared_hits, model.shared_hits);
  EXPECT_DOUBLE_EQ(simt_t.dram_bytes, model.dram_bytes);
  EXPECT_DOUBLE_EQ(simt_t.l2_bytes, model.l2_bytes);
  EXPECT_DOUBLE_EQ(simt_t.shared_bytes, model.shared_bytes);
}

TEST(Simt, SpmmRowwiseComputesAndMatchesModel) {
  const auto s = synth::chung_lu(200, 150, 8.0, 2.3, 3);
  const auto dev = small_device();
  DenseMatrix x(s.cols(), 64);
  sparse::fill_random(x, 1);

  DenseMatrix y_ref(s.rows(), 64), y_simt(s.rows(), 64);
  kernels::spmm_rowwise(s, x, y_ref);
  const TrafficCounters t = simt::spmm_rowwise_simt(s, x, y_simt, dev);
  EXPECT_LT(y_simt.max_abs_diff(y_ref), 1e-4);

  expect_traffic_equal(t, gpusim::simulate_spmm_rowwise(s, 64, dev));
}

TEST(Simt, SpmmRowwiseHonoursProcessingOrder) {
  const auto s = synth::erdos_renyi(96, 96, 600, 4);
  const auto dev = small_device();
  DenseMatrix x(s.cols(), 64), y(s.rows(), 64);
  sparse::fill_random(x, 2);

  std::vector<index_t> reversed(static_cast<std::size_t>(s.rows()));
  for (index_t i = 0; i < s.rows(); ++i) reversed[static_cast<std::size_t>(i)] = s.rows() - 1 - i;
  const TrafficCounters t = simt::spmm_rowwise_simt(s, x, y, dev, &reversed);
  expect_traffic_equal(t, gpusim::simulate_spmm_rowwise(s, 64, dev, &reversed));

  DenseMatrix y_ref(s.rows(), 64);
  kernels::spmm_rowwise(s, x, y_ref);
  EXPECT_LT(y.max_abs_diff(y_ref), 1e-4);
}

TEST(Simt, SpmmAsptComputesAndMatchesModel) {
  synth::ClusteredParams p;
  p.rows = 160;
  p.cols = 200;
  p.num_groups = 8;
  p.group_cols = 24;
  p.row_nnz = 10;
  p.noise_nnz = 2;
  p.scatter = true;
  const auto s = synth::clustered_rows(p, 5);
  const auto tiled = aspt::build_aspt(s, aspt::AsptConfig{.panel_rows = 16,
                                                          .dense_col_threshold = 2,
                                                          .max_dense_cols = 64});
  ASSERT_GT(tiled.stats().nnz_dense, 0);
  ASSERT_GT(tiled.sparse_part().nnz(), 0);

  const auto dev = small_device();
  DenseMatrix x(s.cols(), 64);
  sparse::fill_random(x, 3);
  DenseMatrix y_ref(s.rows(), 64), y_simt(s.rows(), 64);
  kernels::spmm_rowwise(s, x, y_ref);
  const TrafficCounters t = simt::spmm_aspt_simt(tiled, x, y_simt, dev);
  EXPECT_LT(y_simt.max_abs_diff(y_ref), 1e-4);

  expect_traffic_equal(t, gpusim::simulate_spmm_aspt(tiled, 64, dev));
}

TEST(Simt, SpmmAsptWithRoundTwoOrder) {
  const auto s = synth::banded(128, 5, 0.8, 6);
  const auto tiled = aspt::build_aspt(s, aspt::AsptConfig{.panel_rows = 16,
                                                          .dense_col_threshold = 3,
                                                          .max_dense_cols = 32});
  const auto dev = small_device();
  DenseMatrix x(s.cols(), 64), y(s.rows(), 64);
  sparse::fill_random(x, 4);

  std::vector<index_t> order(static_cast<std::size_t>(s.rows()));
  for (index_t i = 0; i < s.rows(); ++i) {
    order[static_cast<std::size_t>(i)] = (i * 7) % s.rows();  // 7 coprime to 128? no; use odd stride
  }
  // 7 and 128 are coprime, so this is a permutation.
  ASSERT_TRUE(sparse::is_permutation(order, s.rows()));

  const TrafficCounters t = simt::spmm_aspt_simt(tiled, x, y, dev, &order);
  expect_traffic_equal(t, gpusim::simulate_spmm_aspt(tiled, 64, dev, &order));

  DenseMatrix y_ref(s.rows(), 64);
  kernels::spmm_rowwise(s, x, y_ref);
  EXPECT_LT(y.max_abs_diff(y_ref), 1e-4);
}

TEST(Simt, SddmmRowwiseComputesAndMatchesModel) {
  const auto s = synth::rmat(7, 800, 7);
  const auto dev = small_device();
  DenseMatrix x(s.cols(), 64), yd(s.rows(), 64);
  sparse::fill_random(x, 5);
  sparse::fill_random(yd, 6);

  std::vector<value_t> out_ref, out_simt;
  kernels::sddmm_rowwise(s, x, yd, out_ref);
  const TrafficCounters t = simt::sddmm_rowwise_simt(s, x, yd, out_simt, dev);
  ASSERT_EQ(out_simt.size(), out_ref.size());
  for (std::size_t j = 0; j < out_ref.size(); ++j) {
    EXPECT_NEAR(out_simt[j], out_ref[j], 1e-4);
  }
  expect_traffic_equal(t, gpusim::simulate_sddmm_rowwise(s, 64, dev));
}

TEST(Simt, SddmmAsptComputesAndMatchesModel) {
  synth::ClusteredParams p;
  p.rows = 160;
  p.cols = 180;
  p.num_groups = 8;
  p.group_cols = 20;
  p.row_nnz = 9;
  p.noise_nnz = 2;
  p.scatter = true;
  const auto s = synth::clustered_rows(p, 21);
  const auto tiled = aspt::build_aspt(s, aspt::AsptConfig{.panel_rows = 16,
                                                          .dense_col_threshold = 2,
                                                          .max_dense_cols = 64});
  ASSERT_GT(tiled.stats().nnz_dense, 0);
  ASSERT_GT(tiled.sparse_part().nnz(), 0);

  const auto dev = small_device();
  DenseMatrix x(s.cols(), 64), yd(s.rows(), 64);
  sparse::fill_random(x, 22);
  sparse::fill_random(yd, 23);

  std::vector<value_t> out_ref, out_simt;
  kernels::sddmm_rowwise(s, x, yd, out_ref);
  const TrafficCounters t = simt::sddmm_aspt_simt(tiled, x, yd, out_simt, dev);
  ASSERT_EQ(out_simt.size(), out_ref.size());
  for (std::size_t j = 0; j < out_ref.size(); ++j) {
    EXPECT_NEAR(out_simt[j], out_ref[j], 1e-4);
  }
  expect_traffic_equal(t, gpusim::simulate_sddmm_aspt(tiled, 64, dev));
}

TEST(Simt, SddmmAsptWithRoundTwoOrder) {
  const auto s = synth::banded(96, 4, 0.8, 24);
  const auto tiled = aspt::build_aspt(s, aspt::AsptConfig{.panel_rows = 16,
                                                          .dense_col_threshold = 3,
                                                          .max_dense_cols = 32});
  const auto dev = small_device();
  DenseMatrix x(s.cols(), 64), yd(s.rows(), 64);
  sparse::fill_random(x, 25);
  sparse::fill_random(yd, 26);

  std::vector<index_t> order(static_cast<std::size_t>(s.rows()));
  for (index_t i = 0; i < s.rows(); ++i) {
    order[static_cast<std::size_t>(i)] = (i * 5) % s.rows();  // 5 coprime to 96? gcd(5,96)=1
  }
  ASSERT_TRUE(sparse::is_permutation(order, s.rows()));

  std::vector<value_t> out;
  const TrafficCounters t = simt::sddmm_aspt_simt(tiled, x, yd, out, dev, &order);
  expect_traffic_equal(t, gpusim::simulate_sddmm_aspt(tiled, 64, dev, &order));
}

namespace barrier_test {

// Cooperative multi-warp block: each warp writes its id into shared
// memory, barriers, then reads its neighbour's slot. Without the barrier
// the round-robin scheduler would let warp 0 read slot 1 before warp 1
// wrote it.
simt::WarpTask worker(simt::WarpCtx& ctx, std::vector<int>& results, int warps) {
  // Phase 1: publish (staggered so warps reach the barrier on different
  // turns — the case the generation counter must handle).
  for (int spin = 0; spin < ctx.warp_in_block; ++spin) co_await ctx.yield();
  ctx.block->shared[static_cast<std::size_t>(ctx.warp_in_block)] =
      static_cast<float>(100 + ctx.warp_in_block);

  for (const int gen = ctx.arrive_barrier(); !ctx.barrier_open(gen);) co_await ctx.yield();

  // Phase 2: read the neighbour's slot, which the barrier guarantees.
  const int neighbour = (ctx.warp_in_block + 1) % warps;
  results[static_cast<std::size_t>(ctx.block_id) * static_cast<std::size_t>(warps) +
          static_cast<std::size_t>(ctx.warp_in_block)] =
      static_cast<int>(ctx.block->shared[static_cast<std::size_t>(neighbour)]);
}

}  // namespace barrier_test

TEST(Simt, BlockBarrierSynchronisesWarps) {
  const auto dev = small_device();
  const int warps = 4;
  const index_t blocks = 9;
  std::vector<int> results(static_cast<std::size_t>(blocks) * warps, -1);

  simt::MemorySystem mem(dev, 64);
  simt::LaunchConfig lc;
  lc.num_blocks = blocks;
  lc.warps_per_block = warps;
  lc.shared_floats = static_cast<std::size_t>(warps);
  simt::launch(dev, lc, mem, [&](index_t /*block*/, int /*w*/, simt::WarpCtx& ctx) {
    return barrier_test::worker(ctx, results, warps);
  });

  for (index_t b = 0; b < blocks; ++b) {
    for (int w = 0; w < warps; ++w) {
      EXPECT_EQ(results[static_cast<std::size_t>(b) * warps + static_cast<std::size_t>(w)],
                100 + (w + 1) % warps)
          << "block " << b << " warp " << w;
    }
  }
}

TEST(Simt, ShapeChecks) {
  const auto s = test::csr({{1, 0}, {0, 1}});
  DenseMatrix bad_x(3, 4), y(2, 4);
  EXPECT_THROW(simt::spmm_rowwise_simt(s, bad_x, y, small_device()), invalid_matrix);
  std::vector<value_t> out;
  EXPECT_THROW(simt::sddmm_rowwise_simt(s, bad_x, y, out, small_device()), invalid_matrix);
}

TEST(Simt, EmptyMatrixLaunchesNothing) {
  const CsrMatrix s(0, 0, {0}, {}, {});
  DenseMatrix x(0, 8), y(0, 8);
  const TrafficCounters t = simt::spmm_rowwise_simt(s, x, y, small_device());
  EXPECT_EQ(t.accesses, 0u);
}

TEST(Simt, FullyDenseTilingIsAllSharedHits) {
  std::vector<std::vector<value_t>> rows(32, {1, 0, 2, 0, 3, 0, 0, 4});
  const auto s = test::csr(rows);
  const auto tiled = aspt::build_aspt(s, aspt::AsptConfig{.panel_rows = 8,
                                                          .dense_col_threshold = 2,
                                                          .max_dense_cols = 1024});
  ASSERT_EQ(tiled.sparse_part().nnz(), 0);
  const auto dev = small_device();
  DenseMatrix x(s.cols(), 64), y(s.rows(), 64);
  sparse::fill_random(x, 8);
  const TrafficCounters t = simt::spmm_aspt_simt(tiled, x, y, dev);
  EXPECT_EQ(t.shared_hits, static_cast<std::uint64_t>(s.nnz()));
  DenseMatrix y_ref(s.rows(), 64);
  kernels::spmm_rowwise(s, x, y_ref);
  EXPECT_LT(y.max_abs_diff(y_ref), 1e-5);
}

// Cross-validation sweep: traffic equality must hold across matrix
// families and device shapes, not just one lucky configuration.
struct SimtCase {
  int family;
  int blocks_per_sm;
  int warps_per_block;
};

class SimtCrossValidation : public ::testing::TestWithParam<SimtCase> {};

TEST_P(SimtCrossValidation, TrafficMatchesAnalyticModel) {
  const SimtCase c = GetParam();
  CsrMatrix s;
  switch (c.family) {
    case 0: s = synth::erdos_renyi(150, 120, 900, 11); break;
    case 1: s = synth::banded(150, 4, 0.7, 12); break;
    case 2: s = synth::rmat(7, 700, 13); break;
    default: {
      synth::ClusteredParams p;
      p.rows = 150;
      p.cols = 150;
      p.num_groups = 10;
      p.group_cols = 16;
      p.row_nnz = 8;
      p.noise_nnz = 1;
      p.scatter = true;
      s = synth::clustered_rows(p, 14);
      break;
    }
  }
  DeviceConfig dev = small_device();
  dev.blocks_per_sm = c.blocks_per_sm;
  dev.warps_per_block = c.warps_per_block;

  DenseMatrix x(s.cols(), 64), y(s.rows(), 64);
  sparse::fill_random(x, 15);
  expect_traffic_equal(simt::spmm_rowwise_simt(s, x, y, dev),
                       gpusim::simulate_spmm_rowwise(s, 64, dev));

  const auto tiled = aspt::build_aspt(s, aspt::AsptConfig{.panel_rows = 16,
                                                          .dense_col_threshold = 2,
                                                          .max_dense_cols = 32});
  expect_traffic_equal(simt::spmm_aspt_simt(tiled, x, y, dev),
                       gpusim::simulate_spmm_aspt(tiled, 64, dev));

  DenseMatrix yd(s.rows(), 64);
  sparse::fill_random(yd, 16);
  std::vector<value_t> out;
  expect_traffic_equal(simt::sddmm_rowwise_simt(s, x, yd, out, dev),
                       gpusim::simulate_sddmm_rowwise(s, 64, dev));
}

INSTANTIATE_TEST_SUITE_P(Shapes, SimtCrossValidation,
                         ::testing::Values(SimtCase{0, 1, 1}, SimtCase{0, 4, 4},
                                           SimtCase{1, 2, 3}, SimtCase{1, 8, 2},
                                           SimtCase{2, 3, 4}, SimtCase{2, 1, 7},
                                           SimtCase{3, 4, 4}, SimtCase{3, 16, 1}));

}  // namespace
}  // namespace rrspmm
