// Chaos soak: seeded random fault plans against the full serving stack
// (Server + PlanCache + WorkerPool on the built-in panel-parallel path,
// with request retry and sequential degrade armed).
//
// The contract under test is the acceptance criterion of the fault
// framework: under any chaos plan, every served request completes and
// its result is bitwise equal to the fault-free sequential reference —
// injection changes scheduling and recovery paths, never result bits.
// Seeds come from RRSPMM_CHAOS_SEED when set (the CI chaos job passes a
// run-derived seed) and default to a fixed trio; each run prints its
// seed and plan spec for replay.
#include <gtest/gtest.h>

#include <cstdlib>
#include <future>
#include <iostream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "fault/fault.hpp"
#include "runtime/runtime.hpp"
#include "spgemm/spgemm.hpp"
#include "synth/corpus.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

using sparse::DenseMatrix;

std::vector<std::uint64_t> chaos_seeds() {
  if (const char* env = std::getenv("RRSPMM_CHAOS_SEED")) {
    return {std::strtoull(env, nullptr, 10)};
  }
  return {11, 23, 47};
}

void expect_bitwise_equal(const DenseMatrix& a, const DenseMatrix& b, const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < a.cols(); ++j) {
      ASSERT_EQ(a(i, j), b(i, j)) << what << " differs at (" << i << "," << j << ")";
    }
  }
}

runtime::ServerConfig soak_server_cfg() {
  runtime::ServerConfig cfg;
  cfg.threads = 3;
  cfg.retry.max_attempts = 4;
  cfg.retry.backoff_base = std::chrono::microseconds(200);
  cfg.retry.backoff_multiplier = 2.0;
  cfg.retry.backoff_cap = std::chrono::microseconds(5000);
  cfg.retry.degrade_to_single_device = true;
  return cfg;
}

TEST(ChaosSoak, EveryServedRequestIsBitwiseEqualToTheFaultFreeReference) {
  const auto corpus = synth::build_test_corpus();
  ASSERT_GE(corpus.size(), 2u);
  const auto& m0 = corpus[0];
  const auto& m1 = corpus[1];

  for (const std::uint64_t seed : chaos_seeds()) {
    const fault::FaultPlan chaos = fault::FaultPlan::chaos(seed);
    std::cout << "[chaos] seed=" << seed << " plan=" << chaos.to_string() << std::endl;

    // Fault-free references first, through the same plan construction
    // the server uses (default PipelineConfig, rr mode).
    struct SpmmCase {
      const synth::CorpusEntry* entry;
      DenseMatrix x;
      DenseMatrix y_ref;
    };
    struct SddmmCase {
      const synth::CorpusEntry* entry;
      DenseMatrix x, y;
      std::vector<value_t> ref;
    };
    const core::ExecutionPlan plan0 = core::build_plan(m0.matrix, {});
    const core::ExecutionPlan plan1 = core::build_plan(m1.matrix, {});
    // The degrade phase below needs a chunk to throw in every attempt:
    // a one-panel plan runs its only chunk without a fail point.
    ASSERT_GE(plan0.tiled.panels().size(), 2u);
    ASSERT_GE(plan1.tiled.panels().size(), 2u);

    std::vector<SpmmCase> spmm_cases;
    for (int i = 0; i < 30; ++i) {
      const bool first = i % 2 == 0;
      const auto& e = first ? m0 : m1;
      const core::ExecutionPlan& plan = first ? plan0 : plan1;
      const index_t k = 3 + static_cast<index_t>(i % 3) * 4;
      SpmmCase c{&e, DenseMatrix(e.matrix.cols(), k), DenseMatrix(e.matrix.rows(), k)};
      sparse::fill_random(c.x, seed * 100 + static_cast<std::uint64_t>(i));
      core::run_spmm(plan, c.x, c.y_ref);
      spmm_cases.push_back(std::move(c));
    }
    // SpGEMM traffic (A·A on the square corpus matrices): the chaos
    // generator arms the spgemm.symbolic / spgemm.accumulate points, so
    // these exercise the retry-then-degrade path alongside the SpMM and
    // SDDMM traffic — and must stay bitwise-equal either way.
    struct SpgemmCase {
      const synth::CorpusEntry* entry;
      sparse::CsrMatrix ref;
    };
    std::vector<SpgemmCase> spgemm_cases;
    for (int i = 0; i < 6; ++i) {
      const auto& e = i % 2 == 0 ? m0 : m1;
      if (e.matrix.rows() != e.matrix.cols()) continue;
      spgemm_cases.push_back({&e, spgemm::multiply(e.matrix, e.matrix)});
    }

    std::vector<SddmmCase> sddmm_cases;
    for (int i = 0; i < 6; ++i) {
      const bool first = i % 2 == 0;
      const auto& e = first ? m0 : m1;
      const core::ExecutionPlan& plan = first ? plan0 : plan1;
      SddmmCase c{&e, DenseMatrix(e.matrix.cols(), 8), DenseMatrix(e.matrix.rows(), 8),
                  std::vector<value_t>(static_cast<std::size_t>(e.matrix.nnz()))};
      sparse::fill_random(c.x, seed * 200 + static_cast<std::uint64_t>(i));
      sparse::fill_random(c.y, seed * 300 + static_cast<std::uint64_t>(i));
      core::run_sddmm(plan, e.matrix, c.x, c.y, c.ref.data(), c.ref.size());
      sddmm_cases.push_back(std::move(c));
    }

    runtime::Server server(soak_server_cfg());
    server.register_matrix(m0.name, m0.matrix);
    server.register_matrix(m1.name, m1.matrix);
    // Deliberately NOT warmed: plan builds happen under fire, so the
    // plan_cache.build fail point is in-path.

    std::uint64_t faults = 0, retries = 0, degradations = 0;
    {
      fault::ScopedFaultPlan armed(chaos);
      std::vector<std::future<DenseMatrix>> spmm_futs;
      for (const SpmmCase& c : spmm_cases) spmm_futs.push_back(server.submit(c.entry->name, c.x));
      std::vector<std::future<std::vector<value_t>>> sddmm_futs;
      for (const SddmmCase& c : sddmm_cases) {
        sddmm_futs.push_back(server.submit_sddmm(c.entry->name, c.x, c.y));
      }
      std::vector<std::future<sparse::CsrMatrix>> spgemm_futs;
      for (const SpgemmCase& c : spgemm_cases) {
        spgemm_futs.push_back(server.submit_spgemm(c.entry->name, c.entry->name));
      }

      for (std::size_t i = 0; i < spmm_futs.size(); ++i) {
        DenseMatrix y;
        ASSERT_NO_THROW(y = spmm_futs[i].get())
            << "spmm request " << i << " failed under chaos seed " << seed;
        expect_bitwise_equal(spmm_cases[i].y_ref, y,
                             "chaos seed " + std::to_string(seed) + " spmm " + std::to_string(i));
      }
      for (std::size_t i = 0; i < sddmm_futs.size(); ++i) {
        std::vector<value_t> out;
        ASSERT_NO_THROW(out = sddmm_futs[i].get())
            << "sddmm request " << i << " failed under chaos seed " << seed;
        ASSERT_EQ(out.size(), sddmm_cases[i].ref.size());
        for (std::size_t j = 0; j < out.size(); ++j) {
          ASSERT_EQ(out[j], sddmm_cases[i].ref[j])
              << "chaos seed " << seed << " sddmm " << i << " nnz " << j;
        }
      }
      for (std::size_t i = 0; i < spgemm_futs.size(); ++i) {
        sparse::CsrMatrix c;
        ASSERT_NO_THROW(c = spgemm_futs[i].get())
            << "spgemm request " << i << " failed under chaos seed " << seed;
        ASSERT_EQ(spgemm_cases[i].ref.rowptr(), c.rowptr()) << "seed " << seed << " spgemm " << i;
        ASSERT_EQ(spgemm_cases[i].ref.colidx(), c.colidx()) << "seed " << seed << " spgemm " << i;
        ASSERT_EQ(spgemm_cases[i].ref.values(), c.values()) << "seed " << seed << " spgemm " << i;
      }
    }

    // Degrade phase: with the plans built, every pool chunk throws, so
    // each SpMM request below fails all of its attempts and the drain
    // serves it through the sequential degrade, still bitwise equal.
    // The capped chaos throws above rarely exhaust a request's attempts.
    const std::uint64_t degraded_before = server.metrics().degradations.load();
    {
      fault::FaultPlan every_chunk;
      every_chunk.seed = seed;
      fault::FaultRule r;
      r.point = fault::points::kWorkerChunk;
      r.kind = fault::FaultKind::throw_error;
      every_chunk.rules.push_back(r);
      fault::ScopedFaultPlan armed(std::move(every_chunk));
      for (std::size_t i = 0; i < 2; ++i) {
        const SpmmCase& c = spmm_cases[i];
        DenseMatrix y;
        ASSERT_NO_THROW(y = server.submit(c.entry->name, c.x).get())
            << "degraded spmm request " << i << " failed under seed " << seed;
        expect_bitwise_equal(c.y_ref, y,
                             "seed " + std::to_string(seed) + " degraded spmm " + std::to_string(i));
      }
    }
    server.stop();
    EXPECT_EQ(server.metrics().degradations.load() - degraded_before, 2u) << "seed " << seed;

    const runtime::Metrics& m = server.metrics();
    faults = m.faults_injected.load();
    retries = m.retries.load();
    degradations = m.degradations.load();
    EXPECT_EQ(m.requests_failed.load(), 0u) << "seed " << seed;
    EXPECT_EQ(m.requests_completed.load(),
              spmm_cases.size() + sddmm_cases.size() + spgemm_cases.size() + 2)
        << "seed " << seed;

    // The chaos generator guarantees that the first plan build throws,
    // so recovery must have actually run — and every retry and every
    // degrade follows a failed attempt, each one a counted injected fault.
    std::cout << "[chaos] seed=" << seed << " faults=" << faults << " retries=" << retries
              << " degradations=" << degradations << std::endl;
    EXPECT_GT(retries + degradations, 0u) << "seed " << seed << " exercised no recovery path";
    EXPECT_GT(degradations, 0u) << "seed " << seed << " never reached the sequential degrade";
    EXPECT_GE(faults, retries + degradations) << "seed " << seed;
  }
}

// Eviction storm: a capacity-1 cache serving two matrices rebuilds plans
// constantly while the plan_cache.evict point stalls inside the cache
// lock. Results must stay bitwise-correct and no request may fail.
TEST(ChaosSoak, EvictionStormWithStallsStaysCorrect) {
  const auto corpus = synth::build_test_corpus();
  ASSERT_GE(corpus.size(), 2u);
  const auto& m0 = corpus[0];
  const auto& m1 = corpus[1];
  const core::ExecutionPlan plan0 = core::build_plan(m0.matrix, {});
  const core::ExecutionPlan plan1 = core::build_plan(m1.matrix, {});

  runtime::ServerConfig cfg = soak_server_cfg();
  cfg.plan_cache_capacity = 1;
  runtime::Server server(cfg);
  server.register_matrix(m0.name, m0.matrix);
  server.register_matrix(m1.name, m1.matrix);

  fault::FaultPlan plan;
  plan.seed = 5;
  fault::FaultRule stall;
  stall.point = fault::points::kPlanCacheEvict;
  stall.kind = fault::FaultKind::stall;
  stall.probability = 0.5;
  stall.stall_us = 300;
  plan.rules.push_back(stall);
  fault::ScopedFaultPlan armed(std::move(plan));

  std::vector<std::future<DenseMatrix>> futs;
  std::vector<DenseMatrix> refs;
  for (int i = 0; i < 16; ++i) {
    const bool first = i % 2 == 0;
    const auto& e = first ? m0 : m1;
    DenseMatrix x(e.matrix.cols(), 6);
    sparse::fill_random(x, 1000 + static_cast<std::uint64_t>(i));
    DenseMatrix y_ref(e.matrix.rows(), 6);
    core::run_spmm(first ? plan0 : plan1, x, y_ref);
    refs.push_back(std::move(y_ref));
    futs.push_back(server.submit(e.name, x));
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    expect_bitwise_equal(refs[i], futs[i].get(), "eviction storm req " + std::to_string(i));
  }
  server.stop();
  EXPECT_EQ(server.metrics().requests_failed.load(), 0u);
  EXPECT_GT(server.metrics().cache_evictions.load(), 0u);
}

// Mid-preprocessing fault: with throw rules armed on the parallel
// signature and scoring stages (plus worker.chunk for good measure), a
// multithreaded plan build must degrade to the sequential preprocessing
// path and produce a plan bitwise equal to the fault-free threads=1
// reference — permutations, candidates, clusters, everything.
TEST(ChaosSoak, PreprocessingFaultsDegradeToSequentialBitwiseEqual) {
  const auto corpus = synth::build_test_corpus();
  ASSERT_GE(corpus.size(), 1u);
  const auto& m0 = corpus[0];

  // force_round1 so at least one reordering round always runs the
  // parallel preprocessing, whatever the corpus heuristics decide.
  core::PipelineConfig seq_cfg;
  seq_cfg.force_round1 = true;
  seq_cfg.threads = 1;
  const core::ExecutionPlan ref = core::build_plan(m0.matrix, seq_cfg);

  for (const std::uint64_t seed : chaos_seeds()) {
    fault::FaultPlan plan;
    plan.seed = seed;
    for (const char* point : {fault::points::kPreprocSignature, fault::points::kPreprocScore,
                              fault::points::kWorkerChunk}) {
      fault::FaultRule r;
      r.point = point;
      r.kind = fault::FaultKind::throw_error;
      r.probability = 1.0;
      r.max_triggers = 2;
      plan.rules.push_back(std::move(r));
    }
    fault::ScopedFaultPlan armed(std::move(plan));

    core::PipelineConfig par_cfg;
    par_cfg.force_round1 = true;
    par_cfg.threads = 4;
    const core::ExecutionPlan got = core::build_plan(m0.matrix, par_cfg);

    EXPECT_TRUE(got.stats.preproc_degraded) << "seed " << seed;
    EXPECT_EQ(ref.row_perm, got.row_perm) << "seed " << seed;
    EXPECT_EQ(ref.sparse_order, got.sparse_order) << "seed " << seed;
    EXPECT_EQ(ref.stats.round1_candidates, got.stats.round1_candidates) << "seed " << seed;
    EXPECT_EQ(ref.stats.round2_candidates, got.stats.round2_candidates) << "seed " << seed;
    EXPECT_EQ(ref.stats.round1_clusters, got.stats.round1_clusters) << "seed " << seed;
    EXPECT_EQ(ref.stats.round2_clusters, got.stats.round2_clusters) << "seed " << seed;
    EXPECT_EQ(ref.stats.round1_applied, got.stats.round1_applied) << "seed " << seed;
    EXPECT_EQ(ref.stats.round2_applied, got.stats.round2_applied) << "seed " << seed;
  }
}

}  // namespace
}  // namespace rrspmm
