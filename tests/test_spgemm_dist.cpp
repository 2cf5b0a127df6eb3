// Sharded SpGEMM: bitwise equality with the sequential multiply for
// every shard strategy and device count, failover under injected shard
// faults, and the sharded metrics counters.
#include <gtest/gtest.h>

#include <string>

#include "core/pipeline.hpp"
#include "dist/dist.hpp"
#include "fault/fault.hpp"
#include "runtime/runtime.hpp"
#include "spgemm/spgemm.hpp"
#include "synth/corpus.hpp"
#include "synth/generators.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

using core::ShardStrategy;
using dist::ShardedExecutor;
using dist::ShardedExecutorConfig;
using runtime::WorkerPool;
using sparse::CsrMatrix;

void expect_bitwise_equal(const CsrMatrix& want, const CsrMatrix& got, const std::string& what) {
  ASSERT_EQ(want.rows(), got.rows()) << what;
  ASSERT_EQ(want.cols(), got.cols()) << what;
  ASSERT_EQ(want.rowptr(), got.rowptr()) << what;
  ASSERT_EQ(want.colidx(), got.colidx()) << what;
  ASSERT_EQ(want.values(), got.values()) << what;
}

TEST(ShardedSpgemm, BitwiseEqualToSequentialForEveryStrategy) {
  WorkerPool pool(4);
  for (const auto& entry : synth::build_test_corpus()) {
    if (entry.matrix.rows() != entry.matrix.cols()) continue;
    const CsrMatrix& m = entry.matrix;
    const CsrMatrix want = spgemm::multiply(m, m);
    const core::ExecutionPlan plan = core::build_plan(m, {});

    for (const ShardStrategy strategy :
         {ShardStrategy::contiguous, ShardStrategy::nnz_balanced, ShardStrategy::reorder_aware}) {
      for (const int n : {1, 2, 3, 8}) {
        ShardedExecutorConfig scfg;
        scfg.num_devices = n;
        scfg.strategy = strategy;
        ShardedExecutor ex(scfg);
        CsrMatrix c;
        ex.spgemm(pool, plan, m, m, c, nullptr, {});
        expect_bitwise_equal(want, c,
                             entry.name + " " + to_string(strategy) + " n=" + std::to_string(n));
      }
    }
  }
}

TEST(ShardedSpgemm, CountsShardsAndAccumulatorRowsInMetrics) {
  WorkerPool pool(2);
  runtime::Metrics metrics;
  const auto entry = synth::build_test_corpus().front();
  const CsrMatrix& m = entry.matrix;
  const core::ExecutionPlan plan = core::build_plan(m, {});
  ShardedExecutorConfig scfg;
  scfg.num_devices = 4;
  scfg.strategy = ShardStrategy::nnz_balanced;
  ShardedExecutor ex(scfg);
  CsrMatrix c;
  ex.spgemm(pool, plan, m, m, c, &metrics, {});
  EXPECT_EQ(metrics.shards_executed.load(), 4u);
  EXPECT_EQ(metrics.sharded_batches.load(), 1u);
  EXPECT_EQ(metrics.spgemm_rows_hash.load() + metrics.spgemm_rows_sort.load() +
                metrics.spgemm_rows_dense.load(),
            static_cast<std::uint64_t>(m.rows()));
  // Narrow B: auto_select accumulates every row densely.
  EXPECT_EQ(metrics.spgemm_rows_dense.load(), static_cast<std::uint64_t>(m.rows()));
  EXPECT_GT(metrics.spgemm_flops.load(), 0u);
  EXPECT_EQ(metrics.spgemm_output_nnz.load(), static_cast<std::uint64_t>(c.nnz()));
}

// A shard that dies mid-batch is re-planned onto the survivors; the
// recovered product must be bitwise identical (numeric ranges rewrite
// their segments completely, so re-execution is idempotent).
TEST(ShardedSpgemm, FailoverRecoversBitwiseEqualResult) {
  WorkerPool pool(4);
  const auto entry = synth::build_test_corpus().front();
  const CsrMatrix& m = entry.matrix;
  const CsrMatrix want = spgemm::multiply(m, m);
  const core::ExecutionPlan plan = core::build_plan(m, {});

  for (const std::uint64_t seed : {3u, 17u, 101u}) {
    fault::FaultPlan fp;
    fp.seed = seed;
    fault::FaultRule r;
    r.point = fault::points::kShardExec;
    r.kind = fault::FaultKind::throw_error;
    r.probability = 1.0;
    r.max_triggers = 2;  // two shard deaths, failover handles both
    fp.rules.push_back(std::move(r));
    fault::ScopedFaultPlan armed(std::move(fp));

    runtime::Metrics metrics;
    ShardedExecutorConfig scfg;
    scfg.num_devices = 4;
    scfg.strategy = ShardStrategy::reorder_aware;
    ShardedExecutor ex(scfg);
    CsrMatrix c;
    ex.spgemm(pool, plan, m, m, c, &metrics, {});
    expect_bitwise_equal(want, c, "failover seed " + std::to_string(seed));
    EXPECT_GE(metrics.shard_failures.load(), 1u) << seed;
    EXPECT_GE(metrics.failovers.load(), 1u) << seed;
  }
}

TEST(ShardedSpgemm, ExhaustedDevicesThrowShardsExhausted) {
  WorkerPool pool(2);
  const auto entry = synth::build_test_corpus().front();
  const CsrMatrix& m = entry.matrix;
  const core::ExecutionPlan plan = core::build_plan(m, {});

  fault::FaultPlan fp;
  fp.seed = 1;
  fault::FaultRule r;
  r.point = fault::points::kShardExec;
  r.kind = fault::FaultKind::throw_error;
  r.probability = 1.0;  // unlimited: every device dies
  fp.rules.push_back(std::move(r));
  fault::ScopedFaultPlan armed(std::move(fp));

  ShardedExecutorConfig scfg;
  scfg.num_devices = 2;
  ShardedExecutor ex(scfg);
  CsrMatrix c;
  EXPECT_THROW(ex.spgemm(pool, plan, m, m, c, nullptr, {}), dist::shards_exhausted);
}

TEST(ShardedSpgemm, RejectsPlanOperandMismatch) {
  WorkerPool pool(2);
  const auto corpus = synth::build_test_corpus();
  const core::ExecutionPlan plan = core::build_plan(corpus[0].matrix, {});
  const CsrMatrix other = synth::erdos_renyi(corpus[0].matrix.rows() + 1,
                                             corpus[0].matrix.rows() + 1, 256, 7);
  ShardedExecutor ex{ShardedExecutorConfig{}};
  CsrMatrix c;
  EXPECT_THROW(ex.spgemm(pool, plan, other, other, c, nullptr, {}), invalid_matrix);
}

}  // namespace
}  // namespace rrspmm
