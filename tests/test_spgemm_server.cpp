// SpGEMM through the serving layer: submit_spgemm correctness against
// the sequential multiply, the spgemm_* metrics counters and their JSON
// serialisation, the retry/degradation recovery path, and synchronous
// shape rejection.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "dist/executor.hpp"
#include "fault/fault.hpp"
#include "runtime/runtime.hpp"
#include "spgemm/spgemm.hpp"
#include "synth/corpus.hpp"
#include "synth/generators.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

using runtime::Server;
using runtime::ServerConfig;
using sparse::CsrMatrix;

void expect_bitwise_equal(const CsrMatrix& want, const CsrMatrix& got, const std::string& what) {
  ASSERT_EQ(want.rows(), got.rows()) << what;
  ASSERT_EQ(want.cols(), got.cols()) << what;
  ASSERT_EQ(want.rowptr(), got.rowptr()) << what;
  ASSERT_EQ(want.colidx(), got.colidx()) << what;
  ASSERT_EQ(want.values(), got.values()) << what;
}

TEST(ServerSpgemm, ServesBitwiseIdenticalProducts) {
  ServerConfig cfg;
  cfg.threads = 4;
  Server server(cfg);
  const auto corpus = synth::build_test_corpus();
  for (const auto& entry : corpus) server.register_matrix(entry.name, entry.matrix);

  std::size_t served = 0;
  std::uint64_t rows = 0;
  for (const auto& entry : corpus) {
    if (entry.matrix.rows() != entry.matrix.cols()) continue;
    const CsrMatrix want = spgemm::multiply(entry.matrix, entry.matrix);
    const CsrMatrix got = server.submit_spgemm(entry.name, entry.name).get();
    expect_bitwise_equal(want, got, entry.name);
    ++served;
    rows += static_cast<std::uint64_t>(entry.matrix.rows());
  }
  server.wait_idle();

  const runtime::Metrics& m = server.metrics();
  EXPECT_EQ(m.spgemm_batches.load(), served);
  EXPECT_GT(m.spgemm_flops.load(), 0u);
  EXPECT_GT(m.spgemm_output_nnz.load(), 0u);
  EXPECT_EQ(m.spgemm_rows_hash.load() + m.spgemm_rows_sort.load() + m.spgemm_rows_dense.load(),
            rows);
  // Every corpus matrix is narrow, so auto_select accumulates densely.
  EXPECT_EQ(m.spgemm_rows_dense.load(), rows);
  EXPECT_EQ(m.spgemm_degradations.load(), 0u);
  EXPECT_EQ(m.requests_failed.load(), 0u);

  const std::string json = server.metrics_json();
  for (const char* key : {"\"spgemm_batches\":", "\"spgemm_flops\":", "\"spgemm_output_nnz\":",
                          "\"spgemm_rows_hash\":", "\"spgemm_rows_sort\":",
                          "\"spgemm_rows_dense\":", "\"spgemm_degradations\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing from " << json;
  }
}

TEST(ServerSpgemm, ServesRectangularPairs) {
  Server server{runtime::ServerConfig{}};
  const CsrMatrix a = synth::erdos_renyi(128, 96, 900, 51);
  const CsrMatrix b = synth::erdos_renyi(96, 160, 1100, 52);
  server.register_matrix("a", a);
  server.register_matrix("b", b);
  const CsrMatrix want = spgemm::multiply(a, b);
  expect_bitwise_equal(want, server.submit_spgemm("a", "b").get(), "a*b");
}

TEST(ServerSpgemm, RejectsShapeMismatchSynchronously) {
  Server server{runtime::ServerConfig{}};
  server.register_matrix("a", synth::erdos_renyi(32, 40, 100, 1));
  server.register_matrix("b", synth::erdos_renyi(41, 16, 100, 2));
  EXPECT_THROW(server.submit_spgemm("a", "b"), invalid_matrix);
  EXPECT_THROW(server.submit_spgemm("a", "missing"), invalid_matrix);
}

TEST(ServerSpgemm, WorksThroughShardedExecutor) {
  constexpr int kDevices = 3;
  ServerConfig cfg;
  cfg.threads = 4;
  dist::ShardedExecutorConfig scfg;
  scfg.num_devices = kDevices;
  scfg.strategy = dist::ShardStrategy::reorder_aware;
  cfg.executor = std::make_shared<dist::ShardedExecutor>(scfg);
  Server server(cfg);

  const auto entry = synth::build_test_corpus().front();
  server.register_matrix(entry.name, entry.matrix);
  const CsrMatrix want = spgemm::multiply(entry.matrix, entry.matrix);
  expect_bitwise_equal(want, server.submit_spgemm(entry.name, entry.name).get(), "sharded");
  server.wait_idle();
  EXPECT_EQ(server.metrics().shards_executed.load(), static_cast<std::uint64_t>(kDevices));
  EXPECT_EQ(server.metrics().sharded_batches.load(), 1u);
}

// With every numeric attempt faulted, the retry budget exhausts and the
// server degrades to the sequential sort-based multiply (probes off) —
// the request must still complete with bitwise-identical bits.
TEST(ServerSpgemm, DegradesToSequentialBitwiseEqualUnderPersistentFaults) {
  ServerConfig cfg;
  cfg.threads = 3;
  cfg.retry.max_attempts = 2;
  cfg.retry.backoff_base = std::chrono::microseconds(100);
  cfg.retry.degrade_to_single_device = true;
  Server server(cfg);

  const auto entry = synth::build_test_corpus().front();
  server.register_matrix(entry.name, entry.matrix);
  server.warm(entry.name);  // plan build happens before the faults arm
  const CsrMatrix want = spgemm::multiply(entry.matrix, entry.matrix);

  fault::FaultPlan fp;
  fp.seed = 77;
  fault::FaultRule r;
  r.point = fault::points::kSpgemmAccumulate;
  r.kind = fault::FaultKind::throw_error;
  r.probability = 1.0;  // unlimited: every probed attempt dies
  fp.rules.push_back(std::move(r));
  fault::ScopedFaultPlan armed(std::move(fp));

  const CsrMatrix got = server.submit_spgemm(entry.name, entry.name).get();
  expect_bitwise_equal(want, got, "degraded product");
  server.wait_idle();

  const runtime::Metrics& m = server.metrics();
  EXPECT_EQ(m.spgemm_batches.load(), 1u);
  EXPECT_EQ(m.spgemm_degradations.load(), 1u);
  EXPECT_GE(m.degradations.load(), 1u);
  EXPECT_GE(m.faults_injected.load(), 1u);
  EXPECT_EQ(m.requests_failed.load(), 0u);
}

TEST(ServerSpgemm, RefusesAfterStop) {
  Server server{runtime::ServerConfig{}};
  server.register_matrix("a", synth::build_test_corpus().front().matrix);
  server.stop();
  EXPECT_THROW(server.submit_spgemm("a", "a"), runtime::server_stopped);
}

}  // namespace
}  // namespace rrspmm
