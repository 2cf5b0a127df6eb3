// ShardPlanner property tests. The headline invariant is the issue's
// acceptance criterion: every strategy, on every corpus matrix, at every
// device count, partitions the row space into contiguous
// ranges covering it exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/pipeline.hpp"
#include "dist/dist.hpp"
#include "synth/corpus.hpp"
#include "synth/generators.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

using core::ShardPlan;
using core::ShardStrategy;
using dist::ShardPlanner;
using sparse::CsrMatrix;

constexpr ShardStrategy kStrategies[] = {ShardStrategy::contiguous, ShardStrategy::nnz_balanced,
                                         ShardStrategy::reorder_aware};
constexpr int kDeviceCounts[] = {1, 2, 3, 4, 8};

// Every strategy x device count partitions [0, rows) exactly once, with
// per-shard nnz summing to the matrix total.
TEST(ShardPlanner, EveryStrategyPartitionsRowsExactlyOnce) {
  ShardPlanner planner;
  for (const auto& entry : synth::build_test_corpus()) {
    const core::ExecutionPlan plan = core::build_plan(entry.matrix, {});
    const offset_t nnz_total = plan.tiled.stats().nnz_total;
    for (const ShardStrategy strategy : kStrategies) {
      for (const int n : kDeviceCounts) {
        const ShardPlan sp = planner.plan_rows(plan, n, strategy);
        ASSERT_NO_THROW(sp.validate())
            << entry.name << " " << to_string(strategy) << " n=" << n;
        EXPECT_EQ(sp.strategy, strategy);
        EXPECT_EQ(sp.num_devices, n);
        EXPECT_EQ(sp.rows, plan.tiled.rows());
        ASSERT_EQ(sp.row_shards.size(), static_cast<std::size_t>(n));

        // Exactly-once coverage, spelled out (validate() checks it too,
        // but the property is the point of this test).
        index_t next = 0;
        offset_t nnz_sum = 0;
        for (const core::RowShard& s : sp.row_shards) {
          EXPECT_EQ(s.row_begin, next);
          EXPECT_LE(s.row_begin, s.row_end);
          next = s.row_end;
          nnz_sum += s.nnz;
        }
        EXPECT_EQ(next, plan.tiled.rows());
        EXPECT_EQ(nnz_sum, nnz_total)
            << entry.name << " " << to_string(strategy) << " n=" << n;
      }
    }
  }
}

TEST(ShardPlanner, PlansAreDeterministic) {
  ShardPlanner planner;
  const auto entry = synth::build_test_corpus().front();
  const core::ExecutionPlan plan = core::build_plan(entry.matrix, {});
  for (const ShardStrategy strategy : kStrategies) {
    const ShardPlan a = planner.plan_rows(plan, 4, strategy);
    const ShardPlan b = planner.plan_rows(plan, 4, strategy);
    EXPECT_EQ(a, b) << to_string(strategy);
  }
}

TEST(ShardPlanner, ReorderAwareCutsOnlyAtPanelBoundaries) {
  ShardPlanner planner;
  for (const auto& entry : synth::build_test_corpus()) {
    const core::ExecutionPlan plan = core::build_plan(entry.matrix, {});
    std::vector<index_t> boundaries;  // legal cut points: panel starts + end
    for (const auto& p : plan.tiled.panels()) boundaries.push_back(p.row_begin);
    boundaries.push_back(plan.tiled.rows());
    for (const int n : kDeviceCounts) {
      const ShardPlan sp = planner.plan_rows(plan, n, ShardStrategy::reorder_aware);
      for (const core::RowShard& s : sp.row_shards) {
        EXPECT_TRUE(std::binary_search(boundaries.begin(), boundaries.end(), s.row_begin))
            << entry.name << " n=" << n << ": cut at row " << s.row_begin
            << " splits a panel";
      }
    }
  }
}

TEST(ShardPlanner, NnzBalancedBeatsContiguousOnSkewedMatrices) {
  // First rows dense, rest nearly empty: equal row counts put almost all
  // nonzeros on device 0, while nnz-balancing must not.
  synth::ClusteredParams p;
  p.rows = 512;
  p.cols = 512;
  p.num_groups = 8;
  p.group_cols = 64;
  p.row_nnz = 48;
  p.noise_nnz = 0;
  p.scatter = false;
  CsrMatrix dense_head = synth::clustered_rows(p, 3);
  // Append empty rows by doubling the row space.
  std::vector<offset_t> rowptr = dense_head.rowptr();
  rowptr.resize(static_cast<std::size_t>(2 * p.rows) + 1, rowptr.back());
  CsrMatrix skewed(2 * p.rows, p.cols, std::move(rowptr),
                   std::vector<index_t>(dense_head.colidx()),
                   std::vector<value_t>(dense_head.values()));

  const core::ExecutionPlan plan = core::build_plan(skewed, {});
  ShardPlanner planner;
  const auto imbalance = [](const ShardPlan& sp) {
    offset_t worst = 0;
    for (const auto& s : sp.row_shards) worst = std::max(worst, s.nnz);
    return worst;
  };
  const ShardPlan by_rows = planner.plan_rows(plan, 4, ShardStrategy::contiguous);
  const ShardPlan by_nnz = planner.plan_rows(plan, 4, ShardStrategy::nnz_balanced);
  EXPECT_LT(imbalance(by_nnz), imbalance(by_rows));
  // The nnz-balanced max shard stays within 2x of the ideal share.
  EXPECT_LE(imbalance(by_nnz), 2 * (plan.tiled.stats().nnz_total / 4 + 1));
}

TEST(ShardPlanner, RejectsBadDeviceCounts) {
  ShardPlanner planner;
  const auto entry = synth::build_test_corpus().front();
  const core::ExecutionPlan plan = core::build_plan(entry.matrix, {});
  EXPECT_THROW(planner.plan_rows(plan, 0, ShardStrategy::contiguous), invalid_matrix);
  EXPECT_THROW(planner.plan_rows(plan, -2, ShardStrategy::nnz_balanced), invalid_matrix);
}

TEST(ShardPlan, ValidateCatchesBrokenPartitions) {
  ShardPlan sp;
  sp.num_devices = 2;
  sp.rows = 10;
  sp.cols = 10;
  sp.row_shards = {{0, 5, 1}, {5, 10, 1}};
  EXPECT_NO_THROW(sp.validate());

  auto gap = sp;
  gap.row_shards[1].row_begin = 6;  // row 5 covered zero times
  EXPECT_THROW(gap.validate(), invalid_matrix);

  auto overlap = sp;
  overlap.row_shards[1].row_begin = 4;  // row 4 covered twice
  EXPECT_THROW(overlap.validate(), invalid_matrix);

  auto incomplete = sp;
  incomplete.row_shards[1].row_end = 9;
  EXPECT_THROW(incomplete.validate(), invalid_matrix);

  auto wrong_count = sp;
  wrong_count.num_devices = 3;
  EXPECT_THROW(wrong_count.validate(), invalid_matrix);
}

}  // namespace
}  // namespace rrspmm
