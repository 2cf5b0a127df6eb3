// Sharded-execution correctness: the acceptance criterion is bitwise
// equality with single-device execution, for every strategy and device
// count, and through the Server.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/pipeline.hpp"
#include "dist/dist.hpp"
#include "kernels/spmm.hpp"
#include "runtime/runtime.hpp"
#include "synth/corpus.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

using core::ShardStrategy;
using dist::ShardedExecutor;
using dist::ShardedExecutorConfig;
using dist::ShardPlanner;
using runtime::Server;
using runtime::ServerConfig;
using runtime::WorkerPool;
using sparse::DenseMatrix;

void expect_bitwise_equal(const DenseMatrix& a, const DenseMatrix& b, const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < a.cols(); ++j) {
      ASSERT_EQ(a(i, j), b(i, j)) << what << " differs at (" << i << "," << j << ")";
    }
  }
}

// Acceptance criterion: sharded execution is bitwise equal to
// the sequential single-device plan execution, for every corpus matrix,
// strategy, and device count.
TEST(ShardedSpmm, BitwiseEqualToSingleDeviceForEveryStrategy) {
  WorkerPool pool(4);
  for (const auto& entry : synth::build_test_corpus()) {
    const core::ExecutionPlan plan = core::build_plan(entry.matrix, {});
    DenseMatrix x(entry.matrix.cols(), 16);
    sparse::fill_random(x, 13);
    DenseMatrix y_single(entry.matrix.rows(), 16);
    core::run_spmm(plan, x, y_single);

    for (const ShardStrategy strategy :
         {ShardStrategy::contiguous, ShardStrategy::nnz_balanced, ShardStrategy::reorder_aware}) {
      for (const int n : {1, 2, 3, 8}) {
        ShardedExecutorConfig scfg;
        scfg.num_devices = n;
        scfg.strategy = strategy;
        ShardedExecutor exec(scfg);
        DenseMatrix y_sharded(entry.matrix.rows(), 16);
        exec.spmm(pool, plan, x, y_sharded, nullptr);
        expect_bitwise_equal(y_single, y_sharded,
                             entry.name + " " + to_string(strategy) + " n=" +
                                 std::to_string(n));
      }
    }
  }
}

TEST(ShardedSpmm, CountsShardsInMetrics) {
  WorkerPool pool(2);
  runtime::Metrics metrics;
  const auto entry = synth::build_test_corpus().front();
  const core::ExecutionPlan plan = core::build_plan(entry.matrix, {});
  ShardedExecutorConfig scfg;
  scfg.num_devices = 4;
  scfg.strategy = ShardStrategy::nnz_balanced;
  ShardedExecutor exec(scfg);
  DenseMatrix x(entry.matrix.cols(), 4), y(entry.matrix.rows(), 4);
  sparse::fill_random(x, 1);
  exec.spmm(pool, plan, x, y, &metrics);
  EXPECT_EQ(metrics.shards_executed.load(), 4u);
}

// A Server configured with a ShardedExecutor serves bitwise-identical
// results and reports the sharded counters in its metrics JSON.
TEST(ShardedExecutorTest, PlugsIntoServerAndStaysExact) {
  constexpr int kDevices = 3;
  ServerConfig cfg;
  cfg.threads = 4;
  ShardedExecutorConfig scfg;
  scfg.num_devices = kDevices;
  scfg.strategy = ShardStrategy::reorder_aware;
  cfg.executor = std::make_shared<ShardedExecutor>(scfg);
  Server server(cfg);

  const auto corpus = synth::build_test_corpus();
  for (const auto& entry : corpus) server.register_matrix(entry.name, entry.matrix);

  for (const auto& entry : corpus) {
    DenseMatrix x(entry.matrix.cols(), 12);
    sparse::fill_random(x, 23);
    const core::ExecutionPlan plan = core::build_plan(entry.matrix, {});
    DenseMatrix y_single(entry.matrix.rows(), 12);
    core::run_spmm(plan, x, y_single);
    const DenseMatrix y_served = server.submit(entry.name, x).get();
    expect_bitwise_equal(y_single, y_served, "sharded server " + entry.name);
  }
  server.wait_idle();

  const auto& m = server.metrics();
  EXPECT_EQ(m.sharded_batches.load(), corpus.size());
  EXPECT_EQ(m.shards_executed.load(), corpus.size() * kDevices);
  EXPECT_EQ(m.requests_failed.load(), 0u);
  const std::string json = server.metrics_json();
  EXPECT_NE(json.find("\"sharded_batches\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shards_executed\":"), std::string::npos) << json;
}

TEST(ShardedExecutorTest, RejectsBadConfig) {
  ShardedExecutorConfig scfg;
  scfg.num_devices = 0;
  scfg.strategy = ShardStrategy::contiguous;
  EXPECT_THROW(ShardedExecutor{scfg}, invalid_matrix);
}

TEST(ShardedSpmm, RejectsMismatchedPlans) {
  WorkerPool pool(2);
  const auto corpus = synth::build_test_corpus();
  const core::ExecutionPlan plan = core::build_plan(corpus[0].matrix, {});
  ShardedExecutor exec;
  DenseMatrix x(corpus[0].matrix.cols(), 4), y(corpus[0].matrix.rows() + 1, 4);
  sparse::fill_random(x, 1);
  EXPECT_THROW(exec.spmm(pool, plan, x, y, nullptr), invalid_matrix);
  DenseMatrix y_ok(corpus[0].matrix.rows(), 5);
  EXPECT_THROW(exec.spmm(pool, plan, x, y_ok, nullptr), invalid_matrix);
}

}  // namespace
}  // namespace rrspmm
