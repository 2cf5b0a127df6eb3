// Interconnect-model math and multi-device simulator composition tests.
#include <gtest/gtest.h>

#include <cmath>

#include "core/pipeline.hpp"
#include "dist/dist.hpp"
#include "synth/generators.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

using dist::Interconnect;
using dist::InterconnectConfig;
using dist::MultiDeviceConfig;
using dist::ShardPlanner;
using core::ShardStrategy;

TEST(Interconnect, PointToPointIsLatencyPlusBytesOverBandwidth) {
  InterconnectConfig cfg;
  cfg.link_gbps = 50.0;
  cfg.latency_s = 1.5e-6;
  const Interconnect ic(cfg);
  EXPECT_DOUBLE_EQ(ic.p2p_time(0.0), 0.0);
  EXPECT_DOUBLE_EQ(ic.p2p_time(50e9), 1.5e-6 + 1.0);
  EXPECT_DOUBLE_EQ(ic.p2p_time(1e6), 1.5e-6 + 1e6 / 50e9);
}

TEST(Interconnect, MeshCollectivesFinishWithTheLargestPayload) {
  const Interconnect ic(InterconnectConfig::nvlink());  // fanout 0: mesh
  const double bw = ic.config().link_gbps * 1e9;
  const double lat = ic.config().latency_s;
  // Unequal payloads ride concurrent links; only the biggest matters.
  EXPECT_DOUBLE_EQ(ic.scatter_time({1e6, 4e6, 2e6}), lat + 4e6 / bw);
  EXPECT_DOUBLE_EQ(ic.gather_time({1e6, 4e6, 2e6}), lat + 4e6 / bw);
  // Zero-byte devices do not add transfers.
  EXPECT_DOUBLE_EQ(ic.scatter_time({0.0, 5e6, 0.0}), lat + 5e6 / bw);
  EXPECT_DOUBLE_EQ(ic.scatter_time({}), 0.0);
}

TEST(Interconnect, FanoutLimitedCollectivesSerialiseIntoRounds) {
  const Interconnect ic(InterconnectConfig::pcie());  // fanout 2
  const double bw = ic.config().link_gbps * 1e9;
  const double lat = ic.config().latency_s;
  // 5 transfers over 2 links: ceil(5/2) = 3 rounds of latency, the total
  // payload shares 2 links' bandwidth.
  const std::vector<double> payloads{1e6, 1e6, 1e6, 1e6, 1e6};
  EXPECT_DOUBLE_EQ(ic.scatter_time(payloads), 3 * lat + 5e6 / (2 * bw));
}

// Odd count of 32-row clusters with disjoint column pools (the
// dist_scaling bench family): after round-1 recovery every panel
// boundary is a cluster seam, and no device count in {2,4,8} divides
// the cluster count, so balanced ideal cuts land mid-panel.
sparse::CsrMatrix shuffled_clustered(index_t clusters, std::uint64_t seed) {
  synth::ClusteredParams p;
  p.rows = 32 * clusters;
  p.cols = 72 * clusters;
  p.num_groups = clusters;
  p.group_cols = 72;
  p.row_nnz = 60;
  p.noise_nnz = 0;  // pure clusters: the family where shard cuts matter
  p.scatter = false;
  p.disjoint_pools = true;
  return synth::shuffle_rows(synth::clustered_rows(p, seed), seed + 1);
}

TEST(MultiDevice, ExtractRowRangeConservesNonzeros) {
  const auto m = shuffled_clustered(49, 7);
  const core::ExecutionPlan plan = core::build_plan(m, {});
  ShardPlanner planner;
  for (const ShardStrategy strategy :
       {ShardStrategy::contiguous, ShardStrategy::nnz_balanced, ShardStrategy::reorder_aware}) {
    const auto sp = planner.plan_rows(plan, 4, strategy);
    offset_t extracted = 0;
    for (const core::RowShard& s : sp.row_shards) {
      const aspt::AsptMatrix shard = dist::extract_row_range(plan.tiled, s.row_begin, s.row_end);
      EXPECT_EQ(shard.rows(), s.rows());
      EXPECT_EQ(shard.stats().nnz_total, s.nnz) << to_string(strategy);
      extracted += shard.stats().nnz_total;
    }
    EXPECT_EQ(extracted, plan.tiled.stats().nnz_total);
  }
}

TEST(MultiDevice, RowModeMakespanComposesScatterKernelGather) {
  const auto m = shuffled_clustered(49, 11);
  const core::ExecutionPlan plan = core::build_plan(m, {});
  ShardPlanner planner;
  const auto sp = planner.plan_rows(plan, 4, ShardStrategy::nnz_balanced);
  const auto r = dist::simulate_spmm_sharded(plan, sp, 128, MultiDeviceConfig{});

  ASSERT_EQ(r.shards.size(), 4u);
  EXPECT_DOUBLE_EQ(r.makespan_s, r.scatter_s + r.max_kernel_s + r.collect_s);
  EXPECT_GT(r.scatter_s, 0.0);
  EXPECT_GT(r.collect_s, 0.0);
  EXPECT_GT(r.comm_bytes, 0.0);
  double max_kernel = 0.0, total = 0.0;
  for (const auto& s : r.shards) {
    max_kernel = std::max(max_kernel, s.kernel.time_s);
    total += s.kernel.time_s;
    // Y payload is exactly the shard's result rows.
    EXPECT_DOUBLE_EQ(s.y_bytes,
                     static_cast<double>(sp.row_shards[static_cast<std::size_t>(s.device)].rows()) *
                         128.0 * sizeof(value_t));
  }
  EXPECT_DOUBLE_EQ(r.max_kernel_s, max_kernel);
  EXPECT_DOUBLE_EQ(r.kernel_total_s, total);
}

// Acceptance criterion (test-sized): makespan decreases with device count
// for the balanced strategies, and reorder_aware is no worse than
// nnz_balanced on a shuffled-clustered matrix.
TEST(MultiDevice, MakespanScalesAndReorderAwareWinsOnClusteredMatrices) {
  const auto m = shuffled_clustered(97, 19);
  const core::ExecutionPlan plan = core::build_plan(m, {});
  ShardPlanner planner;
  const MultiDeviceConfig cfg;
  constexpr index_t kWidth = 128;

  for (const ShardStrategy strategy :
       {ShardStrategy::nnz_balanced, ShardStrategy::reorder_aware}) {
    double prev = 0.0;
    for (int step = 0; const int n : {1, 2, 4}) {
      const auto sp = planner.plan_rows(plan, n, strategy);
      const auto r = dist::simulate_spmm_sharded(plan, sp, kWidth, cfg);
      if (step++ > 0) {
        EXPECT_LT(r.makespan_s, prev) << to_string(strategy) << " at " << n << " devices";
      }
      prev = r.makespan_s;
    }
  }

  for (const int n : {2, 4}) {
    const auto sp_nnz = planner.plan_rows(plan, n, ShardStrategy::nnz_balanced);
    const auto sp_ra = planner.plan_rows(plan, n, ShardStrategy::reorder_aware);
    const auto r_nnz = dist::simulate_spmm_sharded(plan, sp_nnz, kWidth, cfg);
    const auto r_ra = dist::simulate_spmm_sharded(plan, sp_ra, kWidth, cfg);
    EXPECT_LE(r_ra.makespan_s, r_nnz.makespan_s * 1.0001) << n << " devices";
  }
}

TEST(MultiDevice, RejectsMismatchedShardPlans) {
  const auto m = shuffled_clustered(49, 29);
  const core::ExecutionPlan plan = core::build_plan(m, {});
  ShardPlanner planner;
  auto other_rows = planner.plan_rows(plan, 2, ShardStrategy::contiguous);
  other_rows.rows += 1;
  other_rows.row_shards.back().row_end += 1;
  ASSERT_NO_THROW(other_rows.validate());
  EXPECT_THROW(dist::simulate_spmm_sharded(plan, other_rows, 64, {}), invalid_matrix);
  auto broken = planner.plan_rows(plan, 2, ShardStrategy::contiguous);
  broken.row_shards[1].row_begin += 1;
  EXPECT_THROW(dist::simulate_spmm_sharded(plan, broken, 64, {}), invalid_matrix);
}

}  // namespace
}  // namespace rrspmm
