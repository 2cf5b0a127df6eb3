// Cross-module integration tests: the full paper workflow on the small
// fixed corpus, checking both numerical correctness and the performance
// *shape* the paper reports.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "core/vertex_reorder.hpp"
#include "harness/experiment.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/spmm.hpp"
#include "sparse/permute.hpp"
#include "synth/corpus.hpp"
#include "synth/generators.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

using core::PipelineConfig;
using sparse::DenseMatrix;

PipelineConfig test_cfg() {
  PipelineConfig cfg;
  cfg.aspt.panel_rows = 32;  // default dense_col_threshold (4)
  cfg.reorder.cluster.threshold_size = 64;
  return cfg;
}

gpusim::DeviceConfig test_device() {
  // Shrink the L2 so unit-test-sized matrices live in the paper's
  // "X much larger than L2" regime.
  auto dev = gpusim::DeviceConfig::p100();
  dev.l2_bytes = 32 * 1024;
  return dev;
}

TEST(Integration, EveryCorpusMatrixComputesCorrectly) {
  for (const auto& e : synth::build_test_corpus()) {
    const auto plan = core::build_plan(e.matrix, test_cfg());
    DenseMatrix x(e.matrix.cols(), 8);
    sparse::fill_random(x, 1);
    DenseMatrix y_ref(e.matrix.rows(), 8), y(e.matrix.rows(), 8);
    kernels::spmm_rowwise(e.matrix, x, y_ref);
    core::run_spmm(plan, x, y);
    EXPECT_LT(y.max_abs_diff(y_ref), 1e-3) << e.name;

    DenseMatrix yd(e.matrix.rows(), 8);
    sparse::fill_random(yd, 2);
    std::vector<value_t> ref, out(static_cast<std::size_t>(e.matrix.nnz()));
    kernels::sddmm_rowwise(e.matrix, x, yd, ref);
    core::run_sddmm(plan, e.matrix, x, yd, out.data(), out.size());
    ASSERT_EQ(out.size(), ref.size()) << e.name;
    double max_diff = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      max_diff = std::max(max_diff, std::abs(static_cast<double>(ref[i]) - out[i]));
    }
    EXPECT_LT(max_diff, 1e-3) << e.name;
  }
}

TEST(Integration, ReorderingWinsOnScatteredLosesNothingElsewhere) {
  const auto dev = test_device();
  for (const auto& e : synth::build_test_corpus()) {
    const auto nr = core::build_plan_nr(e.matrix, test_cfg());
    const auto rr = core::build_plan(e.matrix, test_cfg());
    const double t_nr = core::simulate_spmm(nr, 128, dev).time_s;
    const double t_rr = core::simulate_spmm(rr, 128, dev).time_s;
    if (e.family == "clustered_scatter" || e.family == "banded_shuffled") {
      EXPECT_LT(t_rr, t_nr) << e.name << " should benefit from reordering";
    }
    // The §4 heuristics must keep any loss small everywhere (paper
    // Table 1: at most a 0-10% slowdown bucket).
    EXPECT_LT(t_rr, t_nr * 1.15) << e.name;
  }
}

TEST(Integration, SddmmGainsMirrorSpmm) {
  const auto dev = test_device();
  synth::ClusteredParams p;
  p.rows = 512;
  p.cols = 2048;
  p.num_groups = 64;
  p.group_cols = 24;
  p.row_nnz = 12;
  p.noise_nnz = 0;
  p.scatter = true;
  const auto m = synth::clustered_rows(p, 42);
  const auto nr = core::build_plan_nr(m, test_cfg());
  const auto rr = core::build_plan(m, test_cfg());
  EXPECT_LT(core::simulate_sddmm(rr, 128, dev).time_s,
            core::simulate_sddmm(nr, 128, dev).time_s);
}

TEST(Integration, VertexReorderingDoesNotHelpSpmm) {
  // §5.2's negative result, reproduced with RCM in place of METIS: feed
  // the vertex-reordered matrix to ASpT-NR and compare against ASpT-NR
  // on the original. It must not produce a meaningful win on the
  // scattered matrix that row reordering easily accelerates.
  const auto dev = test_device();
  synth::ClusteredParams p;
  p.rows = 512;
  p.cols = 512;
  p.num_groups = 64;  // panels hold < 1 row per group before reordering
  p.group_cols = 24;
  p.row_nnz = 10;
  p.noise_nnz = 0;
  p.scatter = true;
  const auto m = synth::clustered_rows(p, 43);

  const auto base = core::build_plan_nr(m, test_cfg());
  const double t_base = core::simulate_spmm(base, 128, dev).time_s;

  const auto rcm = core::rcm_order(m);
  const auto vertex_reordered = sparse::permute_symmetric(m, rcm);
  const auto vr_plan = core::build_plan_nr(vertex_reordered, test_cfg());
  const double t_vertex = core::simulate_spmm(vr_plan, 128, dev).time_s;

  const auto rr = core::build_plan(m, test_cfg());
  const double t_rr = core::simulate_spmm(rr, 128, dev).time_s;

  EXPECT_LT(t_rr, t_base);            // row reordering helps...
  EXPECT_LT(t_rr, t_vertex);          // ...and beats vertex reordering,
  EXPECT_GT(t_vertex, t_base * 0.95); // which is no better than doing nothing.
}

TEST(Integration, ExperimentRunnerProducesCompleteRecords) {
  harness::ExperimentConfig cfg;
  cfg.ks = {32, 64};
  cfg.pipeline = test_cfg();
  cfg.device = test_device();
  cfg.verbose = false;
  const auto records = harness::run_experiment(synth::build_test_corpus(), cfg);
  ASSERT_EQ(records.size(), synth::build_test_corpus().size());
  for (const auto& r : records) {
    ASSERT_EQ(r.spmm.size(), 2u) << r.name;
    ASSERT_EQ(r.sddmm.size(), 2u) << r.name;
    EXPECT_GT(r.spmm_at(32).rowwise.time_s, 0.0);
    EXPECT_GT(r.sddmm_at(64).aspt_rr.time_s, 0.0);
    EXPECT_THROW(r.spmm_at(999), std::out_of_range);
    EXPECT_EQ(r.mstats.rows, 512);
  }
}

TEST(Integration, NeedsReorderingSplitsTheCorpus) {
  harness::ExperimentConfig cfg;
  cfg.ks = {32};
  cfg.pipeline = test_cfg();
  cfg.device = test_device();
  cfg.run_sddmm = false;
  cfg.verbose = false;
  const auto records = harness::run_experiment(synth::build_test_corpus(), cfg);
  int needing = 0;
  for (const auto& r : records) needing += r.needs_reordering();
  EXPECT_GT(needing, 0);
  EXPECT_LT(needing, static_cast<int>(records.size()));  // Fig 7a cases skip
}

TEST(Integration, PreprocessingTimeIsRecorded) {
  const auto m = synth::build_test_corpus()[0].matrix;
  const auto plan = core::build_plan(m, test_cfg());
  EXPECT_GT(plan.stats.preprocess_seconds, 0.0);
  EXPECT_LT(plan.stats.preprocess_seconds, 60.0);
}

}  // namespace
}  // namespace rrspmm
