#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>

#include "core/fingerprint.hpp"
#include "core/pipeline.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/spmm.hpp"
#include "sparse/permute.hpp"
#include "sparse/stats.hpp"
#include "synth/generators.hpp"
#include "synth/rng.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

using core::build_plan;
using core::build_plan_nr;
using core::ExecutionPlan;
using core::PipelineConfig;
using sparse::CsrMatrix;
using sparse::DenseMatrix;

CsrMatrix scattered_matrix(index_t rows = 512, std::uint64_t seed = 21) {
  // Many groups relative to the panel height: a 32-row panel holds ~0.5
  // rows of any one group, so consecutive-row tiling sees nothing until
  // the reorderer gathers the groups (the paper's motivating case).
  synth::ClusteredParams p;
  p.rows = rows;
  p.cols = 2048;
  p.num_groups = 64;
  p.group_cols = 24;
  p.row_nnz = 12;
  p.noise_nnz = 0;
  p.scatter = true;
  return synth::clustered_rows(p, seed);
}

PipelineConfig small_cfg() {
  PipelineConfig cfg;
  cfg.aspt.panel_rows = 32;
  // Keep the default dense_col_threshold (4): with threshold 2, chance
  // collisions of two same-group rows inside a panel already count as
  // dense and mask the effect under test.
  cfg.reorder.cluster.threshold_size = 32;
  return cfg;
}

TEST(Pipeline, Round1FiresOnScatteredMatrix) {
  const auto m = scattered_matrix();
  const ExecutionPlan plan = build_plan(m, small_cfg());
  EXPECT_TRUE(plan.stats.round1_applied);
  EXPECT_GT(plan.stats.dense_ratio_after, plan.stats.dense_ratio_before);
  EXPECT_TRUE(sparse::is_permutation(plan.row_perm, m.rows()));
  EXPECT_TRUE(plan.stats.needs_reordering());
}

TEST(Pipeline, Round1SkippedWhenAlreadyDenselyTiled) {
  // §4 / Fig 7a: identical consecutive rows tile perfectly; the
  // dense-ratio check must skip round 1.
  std::vector<std::vector<value_t>> rows;
  synth::Rng rng(9);
  for (int g = 0; g < 8; ++g) {
    std::vector<value_t> proto(64, 0);
    for (int j = 0; j < 8; ++j) proto[rng.next_below(64)] = 1.0f;
    for (int r = 0; r < 32; ++r) rows.push_back(proto);
  }
  const auto m = test::csr(rows);
  const ExecutionPlan plan = build_plan(m, small_cfg());
  EXPECT_GT(plan.stats.dense_ratio_before, 0.10);
  EXPECT_FALSE(plan.stats.round1_applied);
  EXPECT_EQ(plan.row_perm, sparse::identity_permutation(m.rows()));
}

TEST(Pipeline, DiagonalMatrixReordersToIdentity) {
  // §4 automatic detection: LSH finds no candidates on a diagonal matrix,
  // so even though the rounds run, the permutation is identity.
  const auto m = synth::diagonal(256);
  const ExecutionPlan plan = build_plan(m, small_cfg());
  EXPECT_EQ(plan.row_perm, sparse::identity_permutation(256));
  EXPECT_EQ(plan.sparse_order, sparse::identity_permutation(256));
  EXPECT_EQ(plan.stats.round1_candidates, 0u);
}

TEST(Pipeline, Round2SkippedWhenSparsePartWellClustered) {
  // Banded matrices stay similar row-to-row even after tiling removes the
  // dense columns; avg_sim_before exceeds 0.1 and round 2 is skipped.
  const auto m = synth::banded(512, 6, 0.9, 10);
  PipelineConfig cfg = small_cfg();
  cfg.force_round1 = false;
  const ExecutionPlan plan = build_plan(m, cfg);
  if (plan.tiled.sparse_part().nnz() > 0 && plan.stats.avg_sim_before > cfg.avg_sim_skip) {
    EXPECT_FALSE(plan.stats.round2_applied);
  }
}

TEST(Pipeline, ForceAndDisableSwitches) {
  const auto m = scattered_matrix();
  PipelineConfig cfg = small_cfg();
  cfg.disable_round1 = true;
  cfg.disable_round2 = true;
  const ExecutionPlan off = build_plan(m, cfg);
  EXPECT_FALSE(off.stats.round1_applied);
  EXPECT_FALSE(off.stats.round2_applied);
  EXPECT_FALSE(off.stats.needs_reordering());

  PipelineConfig cfg2 = small_cfg();
  cfg2.force_round1 = true;
  cfg2.force_round2 = true;
  const ExecutionPlan on = build_plan(synth::banded(256, 4, 0.9, 3), cfg2);
  EXPECT_TRUE(on.stats.round1_applied);
}

TEST(Pipeline, NrPlanIsIdentityTiling) {
  const auto m = scattered_matrix();
  const ExecutionPlan nr = build_plan_nr(m, small_cfg());
  EXPECT_EQ(nr.row_perm, sparse::identity_permutation(m.rows()));
  EXPECT_EQ(nr.sparse_order, sparse::identity_permutation(m.rows()));
  EXPECT_DOUBLE_EQ(nr.stats.dense_ratio_before, nr.stats.dense_ratio_after);
}

TEST(Pipeline, RunSpmmMatchesNaiveThroughPermutation) {
  const auto m = scattered_matrix(384, 22);
  const ExecutionPlan plan = build_plan(m, small_cfg());
  ASSERT_TRUE(plan.stats.round1_applied);  // permutation must be exercised
  DenseMatrix x(m.cols(), 16);
  sparse::fill_random(x, 11);
  DenseMatrix y_ref(m.rows(), 16), y_plan(m.rows(), 16);
  kernels::spmm_rowwise(m, x, y_ref);
  core::run_spmm(plan, x, y_plan);
  EXPECT_LT(y_plan.max_abs_diff(y_ref), 1e-4);

  // Padded views (ld > cols) through a reordered and an identity plan
  // land bit-for-bit where the packed run does; a misshapen y throws.
  const index_t k = 12;
  DenseMatrix xp = DenseMatrix::aligned(m.cols(), k);
  sparse::fill_random(xp, 15);
  ASSERT_GT(xp.ld(), xp.cols());
  DenseMatrix x_packed(m.cols(), k);
  for (index_t i = 0; i < m.cols(); ++i) {
    for (index_t j = 0; j < k; ++j) x_packed(i, j) = xp(i, j);
  }
  const ExecutionPlan nr = build_plan_nr(m, small_cfg());
  for (const ExecutionPlan* p : {&plan, &nr}) {
    DenseMatrix y_packed(m.rows(), k);
    DenseMatrix y_padded = DenseMatrix::aligned(m.rows(), k);
    core::run_spmm(*p, x_packed, y_packed);
    core::run_spmm(*p, xp, y_padded);
    for (index_t i = 0; i < m.rows(); ++i) {
      for (index_t j = 0; j < k; ++j) ASSERT_EQ(y_packed(i, j), y_padded(i, j));
    }
  }
  DenseMatrix y_short(m.rows() - 1, k);
  EXPECT_THROW(core::run_spmm(plan, xp, y_short), invalid_matrix);
}

TEST(Pipeline, RunSddmmMatchesNaiveThroughPermutation) {
  const auto m = scattered_matrix(384, 23);
  const ExecutionPlan plan = build_plan(m, small_cfg());
  DenseMatrix x(m.cols(), 16), y(m.rows(), 16);
  sparse::fill_random(x, 12);
  sparse::fill_random(y, 13);
  std::vector<value_t> ref, out(static_cast<std::size_t>(m.nnz()));
  kernels::sddmm_rowwise(m, x, y, ref);
  core::run_sddmm(plan, m, x, y, out.data(), out.size());
  ASSERT_EQ(out.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(out[i], ref[i], 1e-4) << "nonzero " << i;
  }

  // Padded operand views through a reordered and an identity plan match
  // the packed run bit for bit; a wrong-sized output throws.
  DenseMatrix xp = DenseMatrix::aligned(m.cols(), 12), yp = DenseMatrix::aligned(m.rows(), 12);
  sparse::fill_random(xp, 16);
  sparse::fill_random(yp, 17);
  ASSERT_GT(yp.ld(), yp.cols());
  DenseMatrix x_packed(m.cols(), 12), y_packed(m.rows(), 12);
  for (index_t i = 0; i < m.cols(); ++i) {
    for (index_t j = 0; j < 12; ++j) x_packed(i, j) = xp(i, j);
  }
  for (index_t i = 0; i < m.rows(); ++i) {
    for (index_t j = 0; j < 12; ++j) y_packed(i, j) = yp(i, j);
  }
  const ExecutionPlan nr = build_plan_nr(m, small_cfg());
  for (const ExecutionPlan* p : {&plan, &nr}) {
    std::vector<value_t> o_packed(out.size()), o_padded(out.size());
    core::run_sddmm(*p, m, x_packed, y_packed, o_packed.data(), o_packed.size());
    core::run_sddmm(*p, m, xp, yp, o_padded.data(), o_padded.size());
    for (std::size_t j = 0; j < out.size(); ++j) ASSERT_EQ(o_packed[j], o_padded[j]);
  }
  EXPECT_THROW(core::run_sddmm(plan, m, xp, yp, out.data(), out.size() - 1), invalid_matrix);
}

TEST(Pipeline, RunSddmmRejectsMismatchedMatrix) {
  const auto m = scattered_matrix(128, 24);
  const ExecutionPlan plan = build_plan(m, small_cfg());
  const auto other = synth::erdos_renyi(128, 2048, 999, 1);
  DenseMatrix x(2048, 4), y(128, 4);
  std::vector<value_t> out(static_cast<std::size_t>(other.nnz()));
  EXPECT_THROW(core::run_sddmm(plan, other, x, y, out.data(), out.size()), invalid_matrix);
}

TEST(Pipeline, StatsAreInternallyConsistent) {
  const auto m = scattered_matrix();
  const ExecutionPlan plan = build_plan(m, small_cfg());
  EXPECT_GE(plan.stats.preprocess_seconds, 0.0);
  EXPECT_NEAR(plan.stats.delta_dense_ratio(),
              plan.stats.dense_ratio_after - plan.stats.dense_ratio_before, 1e-12);
  EXPECT_NEAR(plan.stats.delta_avg_sim(),
              plan.stats.avg_sim_after - plan.stats.avg_sim_before, 1e-12);
}

TEST(Pipeline, SimulationHooksReturnWork) {
  const auto m = scattered_matrix(256, 25);
  const ExecutionPlan plan = build_plan(m, small_cfg());
  const auto dev = gpusim::DeviceConfig::p100();
  const auto spmm = core::simulate_spmm(plan, 64, dev);
  const auto sddmm = core::simulate_sddmm(plan, 64, dev);
  EXPECT_GT(spmm.flops, 0.0);
  EXPECT_GT(sddmm.flops, 0.0);
  EXPECT_GT(spmm.time_s, 0.0);
}

TEST(Pipeline, AutotunePrefersTheFasterPlan) {
  // Paper §4 trial-and-error. On a scattered clustered matrix the RR plan
  // must win; on a diagonal matrix both are equivalent and autotune must
  // still return a valid plan.
  const auto dev = gpusim::DeviceConfig::p100();
  const auto m = scattered_matrix(512, 26);
  const ExecutionPlan chosen = core::autotune_plan(m, 128, dev, small_cfg());
  const ExecutionPlan nr = build_plan_nr(m, small_cfg());
  EXPECT_LE(core::simulate_spmm(chosen, 128, dev).time_s,
            core::simulate_spmm(nr, 128, dev).time_s);

  const ExecutionPlan diag = core::autotune_plan(synth::diagonal(128), 64, dev, small_cfg());
  EXPECT_TRUE(sparse::is_permutation(diag.row_perm, 128));
}

TEST(Pipeline, AutotuneMeasuredReturnsACorrectPlan) {
  // The measured variant must always return a plan that computes the
  // right answer, whichever side won the timing race.
  const auto m = scattered_matrix(256, 27);
  DenseMatrix x(m.cols(), 8);
  sparse::fill_random(x, 14);
  const ExecutionPlan plan = core::autotune_plan_measured(m, x, small_cfg());
  EXPECT_TRUE(sparse::is_permutation(plan.row_perm, m.rows()));
  DenseMatrix y_ref(m.rows(), 8), y(m.rows(), 8);
  kernels::spmm_rowwise(m, x, y_ref);
  core::run_spmm(plan, x, y);
  EXPECT_LT(y.max_abs_diff(y_ref), 1e-4);
}

// FNV-1a of a vector's bytes, chained onto `h`.
template <typename T>
std::uint64_t hash_vec(const std::vector<T>& v, std::uint64_t h = core::kFnvBasis) {
  return core::fnv1a_bytes(v.data(), v.size() * sizeof(T), h);
}

struct PlanHashes {
  std::uint64_t row_perm, sparse_order, dense_cols, dense_rowptr, plan;
};

// Every panel's dense_cols and dense_rowptr, and a plan fingerprint: the
// rest of the tiling (sparse part, source maps, dense slots and values)
// plus the discrete stats (round flags, candidate and cluster counts).
PlanHashes hash_plan(const ExecutionPlan& plan) {
  PlanHashes h{hash_vec(plan.row_perm), hash_vec(plan.sparse_order), core::kFnvBasis,
               core::kFnvBasis, core::kFnvBasis};
  for (const auto& p : plan.tiled.panels()) {
    h.dense_cols = hash_vec(p.dense_cols, h.dense_cols);
    h.dense_rowptr = hash_vec(p.dense_rowptr, h.dense_rowptr);
    h.plan = hash_vec(p.dense_slot, h.plan);
    h.plan = hash_vec(p.dense_val, h.plan);
    h.plan = hash_vec(p.dense_src_idx, h.plan);
  }
  const CsrMatrix& sp = plan.tiled.sparse_part();
  h.plan = hash_vec(sp.rowptr(), h.plan);
  h.plan = hash_vec(sp.colidx(), h.plan);
  h.plan = hash_vec(sp.values(), h.plan);
  h.plan = hash_vec(plan.tiled.sparse_src_idx(), h.plan);
  const std::uint64_t counts[] = {plan.stats.round1_applied, plan.stats.round2_applied,
                                  plan.stats.round1_candidates, plan.stats.round2_candidates,
                                  static_cast<std::uint64_t>(plan.stats.round1_clusters),
                                  static_cast<std::uint64_t>(plan.stats.round2_clusters)};
  h.plan = core::fnv1a_bytes(counts, sizeof(counts), h.plan);
  return h;
}

TEST(Pipeline, BuildPlanOutputIsPinned) {
  // Golden hashes of build_plan's output, captured before the LSH and
  // clustering stages were last restructured. Any change to the
  // permutation, the tiling, the round-2 order or the round statistics
  // shows here, at every thread count and for both signature schemes.
  synth::ClusteredParams cp;
  cp.rows = 2048;
  cp.cols = 2048;
  cp.num_groups = 64;
  cp.group_cols = 48;
  cp.row_nnz = 16;
  cp.noise_nnz = 2;
  cp.scatter = false;
  synth::GnnFrontierParams gp;
  gp.nodes = 1024;
  gp.communities = 32;
  struct Case {
    const char* name;
    CsrMatrix m;
  };
  const Case cases[] = {
      {"shuffled_clustered", synth::shuffle_rows(synth::clustered_rows(cp, 41), 42)},
      {"erdos_renyi", synth::erdos_renyi(1024, 1024, 1024 * 10, 43)},
      {"gnn_frontier", synth::gnn_frontier(gp, 44)},
  };
  // Indexed [case][scheme]; both thread counts must produce the same row.
  const PlanHashes expected[3][2] = {
      {{0xe388c8b5c92b7c17ULL, 0x86808697befd7c3bULL, 0xb9dbb158a0211f2dULL,
        0x3fbc51e860572029ULL, 0x539cebd3b8c72ddaULL},
       {0x0a21e9f8c0635483ULL, 0x72cd77d8a0807aefULL, 0xab7f3b4a71ed9895ULL,
        0x1d9ba5d7d4fc7a09ULL, 0xbfe956a07b1d9f93ULL}},
      {{0xd1ce71017f98ba27ULL, 0x5e04f337f778a763ULL, 0xf5756d49fc3a3c0bULL,
        0xc08cf81dc4bd7ca1ULL, 0x7532f13cb0b393b8ULL},
       {0xe5fc8f8734d7444fULL, 0x94ea15fd7ef50a2fULL, 0x740a40aafe1e4648ULL,
        0x317d0cb83943d0d2ULL, 0x4ac347b3bc9fb3c6ULL}},
      {{0xb80ab662641d8c83ULL, 0xefbb2155a6e1af43ULL, 0x03cd213a5e2507bbULL,
        0xb38b43f497e02b4bULL, 0x07843a61e0238ed0ULL},
       {0xb80ab662641d8c83ULL, 0xefbb2155a6e1af43ULL, 0x03cd213a5e2507bbULL,
        0xb38b43f497e02b4bULL, 0x20ae57c4492f03a9ULL}},
  };
  const lsh::MinHashScheme schemes[] = {lsh::MinHashScheme::kClassic,
                                        lsh::MinHashScheme::kOnePermutation};
  for (std::size_t c = 0; c < std::size(cases); ++c) {
    for (std::size_t s = 0; s < std::size(schemes); ++s) {
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(::testing::Message() << cases[c].name << " scheme " << s << " threads "
                                          << threads);
        PipelineConfig cfg;
        cfg.reorder.lsh.scheme = schemes[s];
        cfg.threads = threads;
        const ExecutionPlan plan = build_plan(cases[c].m, cfg);
        if (c == 0) {
          EXPECT_TRUE(plan.stats.round1_applied && plan.stats.round2_applied);
        }
        const PlanHashes h = hash_plan(plan);
        const PlanHashes& want = expected[c][s];
        EXPECT_EQ(h.row_perm, want.row_perm);
        EXPECT_EQ(h.sparse_order, want.sparse_order);
        EXPECT_EQ(h.dense_cols, want.dense_cols);
        EXPECT_EQ(h.dense_rowptr, want.dense_rowptr);
        EXPECT_EQ(h.plan, want.plan);
      }
    }
  }
}

TEST(Pipeline, DefaultParametersMatchPaper) {
  const PipelineConfig cfg;
  EXPECT_EQ(cfg.reorder.lsh.siglen, 128);              // §5.4
  EXPECT_EQ(cfg.reorder.lsh.bsize, 2);                 // §5.4
  EXPECT_EQ(cfg.reorder.cluster.threshold_size, 256);  // §5.4
  EXPECT_DOUBLE_EQ(cfg.dense_ratio_skip, 0.10);        // §5.2
  EXPECT_DOUBLE_EQ(cfg.avg_sim_skip, 0.10);            // §5.2
}

}  // namespace
}  // namespace rrspmm
