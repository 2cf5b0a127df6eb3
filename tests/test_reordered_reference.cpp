// Reordered-plan execution checked against a reference that shares none
// of the execute paths' addressing: the scalar ASpT kernel computes in the
// plan's permuted row space, and the result is moved back to the caller's
// order by explicit copies (the allocating unpermute_dense_rows for SpMM,
// a per-row segment copy for SDDMM). Every plan-driven path — core::run_*,
// runtime::parallel_* at 1 and 4 threads, the ShardedExecutor under each
// strategy, and a zero-copy Server submit — must match it bit for bit on
// every corpus matrix, for identity, round-1, round-2 and two-round plans,
// through packed and padded (ld > cols) views.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "dist/executor.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/spmm.hpp"
#include "runtime/runtime.hpp"
#include "sparse/permute.hpp"
#include "synth/corpus.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

namespace simd = kernels::simd;
using core::ExecutionPlan;
using sparse::CsrMatrix;
using sparse::DenseMatrix;
using sparse::DenseMutView;
using sparse::DenseView;

constexpr index_t kK = 12;  // not a multiple of any vector width; aligned() pads ld to 16

simd::KernelConfig scalar_config() {
  simd::KernelConfig cfg;
  cfg.isa = simd::Isa::scalar;
  return cfg;
}

DenseMatrix spmm_reference(const ExecutionPlan& plan, const DenseMatrix& x) {
  DenseMatrix yp(plan.tiled.rows(), x.cols());
  kernels::spmm_aspt(plan.tiled, x, yp, &plan.sparse_order, scalar_config());
  return sparse::unpermute_dense_rows(yp, plan.row_perm);
}

std::vector<value_t> sddmm_reference(const ExecutionPlan& plan, const CsrMatrix& m,
                                     const DenseMatrix& x, const DenseMatrix& y) {
  const DenseMatrix yp = sparse::permute_dense_rows(y, plan.row_perm);
  std::vector<value_t> outp;
  kernels::sddmm_aspt(plan.tiled, x, yp, outp, &plan.sparse_order, scalar_config());
  // Tiled row i is the caller's row row_perm[i]: copy its output segment
  // (tiled CSR order) to that row's segment of m's CSR order.
  std::vector<value_t> out(static_cast<std::size_t>(m.nnz()));
  offset_t ppos = 0;
  for (index_t i = 0; i < m.rows(); ++i) {
    const index_t orig = plan.row_perm[static_cast<std::size_t>(i)];
    const offset_t base = m.rowptr()[static_cast<std::size_t>(orig)];
    const index_t len = m.row_nnz(orig);
    std::copy(outp.begin() + ppos, outp.begin() + ppos + len, out.begin() + base);
    ppos += len;
  }
  return out;
}

void expect_same_bits(const DenseMatrix& want, const DenseMatrix& got, const std::string& what) {
  ASSERT_EQ(want.rows(), got.rows()) << what;
  ASSERT_EQ(want.cols(), got.cols()) << what;
  for (index_t i = 0; i < want.rows(); ++i) {
    for (index_t j = 0; j < want.cols(); ++j) {
      ASSERT_EQ(want(i, j), got(i, j)) << what << " differs at (" << i << "," << j << ")";
    }
  }
}

void expect_same_bits(const std::vector<value_t>& want, const std::vector<value_t>& got,
                      const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t j = 0; j < want.size(); ++j) {
    ASSERT_EQ(want[j], got[j]) << what << " differs at nonzero " << j;
  }
}

struct PlanKind {
  const char* name;
  runtime::PlanMode mode;
  core::PipelineConfig pipeline;
};

std::vector<PlanKind> plan_kinds() {
  core::PipelineConfig round1;
  round1.force_round1 = true;
  round1.disable_round2 = true;
  core::PipelineConfig round2;
  round2.disable_round1 = true;
  round2.force_round2 = true;
  core::PipelineConfig both;
  both.force_round1 = true;
  both.force_round2 = true;
  return {{"identity", runtime::PlanMode::nr, {}},
          {"round1", runtime::PlanMode::rr, round1},
          {"round2", runtime::PlanMode::rr, round2},
          {"both", runtime::PlanMode::rr, both}};
}

DenseMatrix make_dense(index_t rows, bool padded, std::uint64_t seed) {
  DenseMatrix d = padded ? DenseMatrix::aligned(rows, kK) : DenseMatrix(rows, kK);
  sparse::fill_random(d, seed);
  return d;
}

const core::ShardStrategy kStrategies[] = {core::ShardStrategy::contiguous,
                                           core::ShardStrategy::nnz_balanced,
                                           core::ShardStrategy::reorder_aware};

TEST(ReorderedReference, SpmmEveryPathMatchesBitwise) {
  const auto corpus = synth::build_test_corpus();
  runtime::WorkerPool pool1(1);
  runtime::WorkerPool pool4(4);
  std::size_t permuted_rows = 0;
  std::size_t reordered_sparse = 0;
  for (const PlanKind& kind : plan_kinds()) {
    runtime::ServerConfig scfg;
    scfg.threads = 2;
    scfg.mode = kind.mode;
    scfg.pipeline = kind.pipeline;
    scfg.zero_copy = true;
    runtime::Server server(scfg);
    for (const auto& entry : corpus) server.register_matrix(entry.name, entry.matrix);

    for (const auto& entry : corpus) {
      const CsrMatrix& m = entry.matrix;
      const runtime::PlanPtr plan_ptr = server.warm(entry.name);
      const ExecutionPlan& plan = *plan_ptr;
      if (!sparse::is_permutation(plan.row_perm, m.rows())) FAIL() << entry.name;
      if (plan.row_perm != sparse::identity_permutation(m.rows())) ++permuted_rows;
      if (plan.sparse_order != sparse::identity_permutation(m.rows())) ++reordered_sparse;

      for (const bool padded : {false, true}) {
        const std::string what = std::string(kind.name) + " " + entry.name +
                                 (padded ? " padded" : " packed");
        const DenseMatrix x = make_dense(m.cols(), padded, 31);
        const DenseMatrix want = spmm_reference(plan, x);

        DenseMatrix y = make_dense(m.rows(), padded, 7);  // stale contents must be overwritten
        core::run_spmm(plan, x, y);
        expect_same_bits(want, y, "run_spmm " + what);

        for (runtime::WorkerPool* pool : {&pool1, &pool4}) {
          y = make_dense(m.rows(), padded, 7);
          runtime::parallel_spmm(*pool, plan, DenseView(x), DenseMutView(y));
          expect_same_bits(want, y,
                           "parallel_spmm t=" + std::to_string(pool->size()) + " " + what);
        }

        for (const core::ShardStrategy strategy : kStrategies) {
          dist::ShardedExecutorConfig ecfg;
          ecfg.num_devices = 3;
          ecfg.strategy = strategy;
          dist::ShardedExecutor exec(ecfg);
          y = make_dense(m.rows(), padded, 7);
          exec.spmm(pool4, plan, DenseView(x), DenseMutView(y), nullptr);
          expect_same_bits(want, y,
                           std::string("sharded ") + core::to_string(strategy) + " " + what);
        }

        y = make_dense(m.rows(), padded, 7);
        server.submit(entry.name, DenseView(x), DenseMutView(y)).get();
        expect_same_bits(want, y, "server " + what);
      }
    }
    server.wait_idle();
    EXPECT_EQ(server.metrics().zero_copy_requests.load(), 2 * corpus.size()) << kind.name;
    EXPECT_EQ(server.metrics().zero_copy_fallbacks.load(), 0u) << kind.name;
  }
  // The plan kinds really exercise both permutations.
  EXPECT_GT(permuted_rows, 0u);
  EXPECT_GT(reordered_sparse, 0u);
}

TEST(ReorderedReference, SddmmEveryPathMatchesBitwise) {
  const auto corpus = synth::build_test_corpus();
  runtime::WorkerPool pool1(1);
  runtime::WorkerPool pool4(4);
  for (const PlanKind& kind : plan_kinds()) {
    runtime::ServerConfig scfg;
    scfg.threads = 2;
    scfg.mode = kind.mode;
    scfg.pipeline = kind.pipeline;
    scfg.zero_copy = true;
    runtime::Server server(scfg);
    for (const auto& entry : corpus) server.register_matrix(entry.name, entry.matrix);

    for (const auto& entry : corpus) {
      const CsrMatrix& m = entry.matrix;
      const runtime::PlanPtr plan_ptr = server.warm(entry.name);
      const ExecutionPlan& plan = *plan_ptr;
      const std::size_t nnz = static_cast<std::size_t>(m.nnz());

      for (const bool padded : {false, true}) {
        const std::string what = std::string(kind.name) + " " + entry.name +
                                 (padded ? " padded" : " packed");
        const DenseMatrix x = make_dense(m.cols(), padded, 41);
        const DenseMatrix y = make_dense(m.rows(), padded, 43);
        const std::vector<value_t> want = sddmm_reference(plan, m, x, y);

        std::vector<value_t> out(nnz, value_t{-1});
        core::run_sddmm(plan, m, x, y, out.data(), out.size());
        expect_same_bits(want, out, "run_sddmm " + what);

        for (runtime::WorkerPool* pool : {&pool1, &pool4}) {
          std::fill(out.begin(), out.end(), value_t{-1});
          runtime::parallel_sddmm(*pool, plan, m, DenseView(x), DenseView(y), out.data(),
                                  out.size());
          expect_same_bits(want, out,
                           "parallel_sddmm t=" + std::to_string(pool->size()) + " " + what);
        }

        for (const core::ShardStrategy strategy : kStrategies) {
          dist::ShardedExecutorConfig ecfg;
          ecfg.num_devices = 3;
          ecfg.strategy = strategy;
          dist::ShardedExecutor exec(ecfg);
          std::fill(out.begin(), out.end(), value_t{-1});
          exec.sddmm(pool4, plan, m, DenseView(x), DenseView(y), out.data(), out.size(),
                     nullptr);
          expect_same_bits(want, out,
                           std::string("sharded ") + core::to_string(strategy) + " " + what);
        }

        std::fill(out.begin(), out.end(), value_t{-1});
        server.submit_sddmm(entry.name, DenseView(x), DenseView(y), out.data(), out.size())
            .get();
        expect_same_bits(want, out, "server " + what);
      }
    }
    server.wait_idle();
    EXPECT_EQ(server.metrics().zero_copy_requests.load(), 2 * corpus.size()) << kind.name;
  }
}

}  // namespace
}  // namespace rrspmm
