// Randomised cross-strategy consistency: for a sweep of random matrices,
// shapes, K widths and pipeline configurations, every execution strategy
// must agree numerically —
//
//   row-wise SpMM  ==  ASpT SpMM  ==  plan SpMM (any reordering)
//   row-wise SDDMM ==  ASpT SDDMM ==  plan SDDMM
//
// and every plan must satisfy its structural invariants. This is the
// paper's implicit contract: the transformation changes *data movement*,
// never *results*.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/pipeline.hpp"
#include "core/plan_io.hpp"
#include "dist/executor.hpp"
#include "fault/fault.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/spmm.hpp"
#include "runtime/runtime.hpp"
#include "simt/kernels.hpp"
#include "sparse/permute.hpp"
#include "synth/generators.hpp"
#include "synth/rng.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

using core::ExecutionPlan;
using core::PipelineConfig;
using sparse::CsrMatrix;
using sparse::DenseMatrix;

struct FuzzCase {
  std::uint64_t seed;
};

// Draws a random matrix + configuration from the seed.
struct Drawn {
  CsrMatrix m;
  PipelineConfig cfg;
  index_t k;
};

Drawn draw(std::uint64_t seed) {
  synth::Rng rng(seed);
  Drawn d;

  const auto family = rng.next_below(5);
  const auto rows = static_cast<index_t>(64 + rng.next_below(512));
  const auto cols = static_cast<index_t>(64 + rng.next_below(512));
  switch (family) {
    case 0:
      d.m = synth::erdos_renyi(rows, cols, static_cast<offset_t>(rows) * (2 + rng.next_below(12)),
                               seed * 3 + 1);
      break;
    case 1: {
      synth::ClusteredParams p;
      p.rows = rows;
      p.cols = cols;
      p.num_groups = static_cast<index_t>(2 + rng.next_below(24));
      p.group_cols = static_cast<index_t>(4 + rng.next_below(32));
      p.row_nnz = static_cast<index_t>(1 + rng.next_below(static_cast<std::uint64_t>(p.group_cols)));
      p.noise_nnz = static_cast<index_t>(rng.next_below(4));
      p.scatter = rng.next_below(2) == 0;
      d.m = synth::clustered_rows(p, seed * 3 + 2);
      break;
    }
    case 2:
      d.m = synth::banded(rows, static_cast<index_t>(1 + rng.next_below(8)),
                          0.3 + 0.6 * rng.next_double(), seed * 3 + 3);
      break;
    case 3:
      d.m = synth::chung_lu(rows, cols, 2.0 + 10.0 * rng.next_double(),
                            2.05 + rng.next_double(), seed * 3 + 4);
      break;
    default:
      d.m = synth::rmat(static_cast<index_t>(6 + rng.next_below(3)),
                        static_cast<offset_t>(256 + rng.next_below(2048)), seed * 3 + 5);
      break;
  }

  d.cfg.aspt.panel_rows = static_cast<index_t>(1 + rng.next_below(96));
  d.cfg.aspt.dense_col_threshold = static_cast<index_t>(2 + rng.next_below(6));
  d.cfg.aspt.max_dense_cols = static_cast<index_t>(1 + rng.next_below(256));
  d.cfg.reorder.cluster.threshold_size = static_cast<index_t>(2 + rng.next_below(256));
  d.cfg.reorder.lsh.bsize = (rng.next_below(2) == 0) ? 2 : 4;
  d.cfg.reorder.lsh.siglen = 32 * static_cast<int>(1 + rng.next_below(4));
  if (d.cfg.reorder.lsh.siglen % d.cfg.reorder.lsh.bsize != 0) d.cfg.reorder.lsh.bsize = 2;
  d.cfg.reorder.lsh.scheme = (rng.next_below(2) == 0) ? lsh::MinHashScheme::kClassic
                                                      : lsh::MinHashScheme::kOnePermutation;
  d.cfg.force_round1 = rng.next_below(3) == 0;
  d.cfg.force_round2 = rng.next_below(3) == 0;
  d.k = static_cast<index_t>(1 + rng.next_below(48));
  return d;
}

class FuzzConsistency : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzConsistency, AllStrategiesAgree) {
  const Drawn d = draw(GetParam());
  const CsrMatrix& m = d.m;
  SCOPED_TRACE("rows=" + std::to_string(m.rows()) + " cols=" + std::to_string(m.cols()) +
               " nnz=" + std::to_string(m.nnz()) + " k=" + std::to_string(d.k) +
               " panel=" + std::to_string(d.cfg.aspt.panel_rows));

  const ExecutionPlan plan = core::build_plan(m, d.cfg);
  ASSERT_TRUE(sparse::is_permutation(plan.row_perm, m.rows()));
  ASSERT_TRUE(sparse::is_permutation(plan.sparse_order, m.rows()));
  ASSERT_EQ(plan.tiled.stats().nnz_total, m.nnz());

  DenseMatrix x(m.cols(), d.k), yd(m.rows(), d.k);
  sparse::fill_random(x, GetParam() ^ 0xAAAA);
  sparse::fill_random(yd, GetParam() ^ 0x5555);

  // SpMM agreement. Tolerance scales with the reduction length since
  // fp32 summation order differs across strategies.
  DenseMatrix y_ref(m.rows(), d.k), y_plan(m.rows(), d.k);
  kernels::spmm_rowwise(m, x, y_ref);
  core::run_spmm(plan, x, y_plan);
  const double tol = 1e-5 * std::max<double>(16.0, m.max_row_nnz());
  EXPECT_LT(y_plan.max_abs_diff(y_ref), tol);

  // SDDMM agreement.
  std::vector<value_t> o_ref, o_plan(static_cast<std::size_t>(m.nnz()));
  kernels::sddmm_rowwise(m, x, yd, o_ref);
  core::run_sddmm(plan, m, x, yd, o_plan.data(), o_plan.size());
  ASSERT_EQ(o_plan.size(), o_ref.size());
  double max_diff = 0.0;
  for (std::size_t j = 0; j < o_ref.size(); ++j) {
    max_diff = std::max(max_diff, std::abs(static_cast<double>(o_ref[j]) - o_plan[j]));
  }
  const double sddmm_tol = 1e-5 * std::max<double>(16.0, d.k);
  EXPECT_LT(max_diff, sddmm_tol);

  // Simulators accept the plan and account for every nonzero: all dense
  // nonzeros hit shared memory; X-row reads are one per panel dense
  // column plus one per sparse nonzero.
  const auto dev = gpusim::DeviceConfig::p100();
  const auto sim = core::simulate_spmm(plan, d.k, dev);
  EXPECT_DOUBLE_EQ(sim.flops, 2.0 * static_cast<double>(m.nnz()) * d.k);
  EXPECT_EQ(sim.shared_hits, static_cast<std::uint64_t>(plan.tiled.stats().nnz_dense));
  EXPECT_EQ(sim.x_accesses, static_cast<std::uint64_t>(plan.tiled.stats().total_dense_cols) +
                                static_cast<std::uint64_t>(plan.tiled.sparse_part().nnz()));

  // Serialisation round-trip: whatever the configuration produced, the
  // reloaded plan must compute bit-identical results.
  std::stringstream ss;
  core::save_plan(plan, ss);
  const ExecutionPlan reloaded = core::load_plan(ss);
  DenseMatrix y_reloaded(m.rows(), d.k);
  core::run_spmm(reloaded, x, y_reloaded);
  EXPECT_DOUBLE_EQ(y_reloaded.max_abs_diff(y_plan), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzConsistency,
                         ::testing::Range<std::uint64_t>(1, 33));  // 32 random cases

// The same random-configuration draw, but executed through the
// functional SIMT executor: traffic must equal the analytic model
// exactly and values must match the host kernels. Fewer seeds — the
// executor is the slow path.
class FuzzSimt : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSimt, ExecutorAgreesWithModelAndKernels) {
  const Drawn d = draw(GetParam() + 1000);
  const CsrMatrix& m = d.m;
  gpusim::DeviceConfig dev;
  dev.num_sms = 2 + static_cast<int>(GetParam() % 3);
  dev.blocks_per_sm = 1 + static_cast<int>(GetParam() % 4);
  dev.warps_per_block = 1 + static_cast<int>((GetParam() / 4) % 5);
  dev.l2_bytes = (8u << (GetParam() % 4)) * static_cast<std::size_t>(d.k) * 4;

  DenseMatrix x(m.cols(), d.k);
  sparse::fill_random(x, GetParam() ^ 0x1234);

  const auto tiled = aspt::build_aspt(m, d.cfg.aspt);

  DenseMatrix y_host(m.rows(), d.k), y_simt(m.rows(), d.k);
  kernels::spmm_aspt(tiled, x, y_host);
  const auto t = simt::spmm_aspt_simt(tiled, x, y_simt, dev);
  const auto model = gpusim::simulate_spmm_aspt(tiled, d.k, dev);
  EXPECT_EQ(t.accesses, model.x_accesses);
  EXPECT_EQ(t.l2_hits, model.x_l2_hits);
  EXPECT_EQ(t.shared_hits, model.shared_hits);
  EXPECT_DOUBLE_EQ(t.dram_bytes, model.dram_bytes);
  EXPECT_LT(y_simt.max_abs_diff(y_host), 1e-5 * std::max<double>(16.0, m.max_row_nnz()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSimt, ::testing::Range<std::uint64_t>(1, 13));

// Failover dimension: the same random draw, but executed through the
// sharded executor with a shard failure injected mid-plan. Recovery
// re-plans the dead device's rows onto survivors; the contract is the
// same as everywhere else — fault handling changes data movement, never
// results. Bitwise, not tolerance: the row-range kernel makes recovered
// rows identical, not merely close.
class FuzzFailover : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzFailover, ShardFailureMidPlanReproducesResultsExactly) {
  const Drawn d = draw(GetParam() + 2000);
  const CsrMatrix& m = d.m;
  SCOPED_TRACE("rows=" + std::to_string(m.rows()) + " nnz=" + std::to_string(m.nnz()) +
               " k=" + std::to_string(d.k));

  const ExecutionPlan plan = core::build_plan(m, d.cfg);
  DenseMatrix x(m.cols(), d.k);
  sparse::fill_random(x, GetParam() ^ 0xF41L);
  DenseMatrix y_ref(m.rows(), d.k);
  core::run_spmm(plan, x, y_ref);

  runtime::WorkerPool pool(3);
  runtime::Metrics metrics;
  dist::ShardedExecutorConfig ex;
  ex.num_devices = 2 + static_cast<int>(GetParam() % 3);
  ex.strategy = dist::ShardStrategy::reorder_aware;
  dist::ShardedExecutor executor(ex);

  fault::FaultPlan fp;
  fp.seed = GetParam();
  fault::FaultRule r;
  r.point = fault::points::kShardExec;
  r.kind = fault::FaultKind::throw_error;
  r.probability = 1.0;
  r.after_hits = GetParam() % 2;
  r.max_triggers = 1;
  fp.rules.push_back(r);
  fault::ScopedFaultPlan armed(std::move(fp));

  DenseMatrix y_failover(m.rows(), d.k);
  executor.spmm(pool, plan, x, y_failover, &metrics);
  EXPECT_DOUBLE_EQ(y_failover.max_abs_diff(y_ref), 0.0);
  EXPECT_GE(metrics.faults_injected.load(), 1u);
  EXPECT_GE(metrics.failovers.load(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzFailover, ::testing::Range<std::uint64_t>(1, 11));

// End-to-end flavour: SpMM and SDDMM served through a Server whose
// executor loses a device mid-batch, with retry + degradation armed.
class FuzzServedFailover : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzServedFailover, ServedResultsSurviveShardFailureBitwise) {
  const Drawn d = draw(GetParam() + 3000);
  const CsrMatrix& m = d.m;

  const ExecutionPlan ref_plan = core::build_plan(m, {});
  DenseMatrix x(m.cols(), d.k), yd(m.rows(), d.k);
  sparse::fill_random(x, GetParam() ^ 0xBEE);
  sparse::fill_random(yd, GetParam() ^ 0xFEED);
  DenseMatrix y_ref(m.rows(), d.k);
  core::run_spmm(ref_plan, x, y_ref);
  std::vector<value_t> o_ref(static_cast<std::size_t>(m.nnz()));
  core::run_sddmm(ref_plan, m, x, yd, o_ref.data(), o_ref.size());

  runtime::ServerConfig cfg;
  cfg.threads = 3;
  cfg.retry.max_attempts = 3;
  cfg.retry.backoff_base = std::chrono::microseconds(100);
  cfg.retry.degrade_to_single_device = true;
  dist::ShardedExecutorConfig ex;
  ex.num_devices = 3;
  cfg.executor = std::make_shared<dist::ShardedExecutor>(ex);
  runtime::Server server(cfg);
  server.register_matrix("m", m);

  fault::FaultPlan fp;
  fp.seed = GetParam() * 7 + 1;
  fault::FaultRule r;
  r.point = fault::points::kShardExec;
  r.kind = fault::FaultKind::throw_error;
  r.probability = 1.0;
  r.max_triggers = 1 + GetParam() % 3;
  fp.rules.push_back(r);
  fault::ScopedFaultPlan armed(std::move(fp));

  const DenseMatrix y_served = server.submit("m", x).get();
  const std::vector<value_t> o_served = server.submit_sddmm("m", x, yd).get();
  server.stop();

  EXPECT_DOUBLE_EQ(y_served.max_abs_diff(y_ref), 0.0);
  ASSERT_EQ(o_served.size(), o_ref.size());
  for (std::size_t j = 0; j < o_ref.size(); ++j) ASSERT_EQ(o_served[j], o_ref[j]);
  EXPECT_EQ(server.metrics().requests_failed.load(), 0u);
  EXPECT_GE(server.metrics().faults_injected.load(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzServedFailover, ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace rrspmm
