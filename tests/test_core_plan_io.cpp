#include <gtest/gtest.h>
#include <cstring>

#include <sstream>

#include "core/pipeline.hpp"
#include "core/plan_io.hpp"
#include "kernels/spmm.hpp"
#include "sparse/permute.hpp"
#include "synth/generators.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

using core::build_plan;
using core::ExecutionPlan;
using sparse::CsrMatrix;
using sparse::DenseMatrix;

CsrMatrix subject_matrix() {
  synth::ClusteredParams p;
  p.rows = 256;
  p.cols = 1024;
  p.num_groups = 32;
  p.group_cols = 24;
  p.row_nnz = 10;
  p.noise_nnz = 1;
  p.scatter = true;
  return synth::clustered_rows(p, 55);
}

core::PipelineConfig small_cfg() {
  core::PipelineConfig cfg;
  cfg.aspt.panel_rows = 32;
  cfg.reorder.cluster.threshold_size = 32;
  return cfg;
}

TEST(PlanIo, RoundTripPreservesEverything) {
  const auto m = subject_matrix();
  const ExecutionPlan plan = build_plan(m, small_cfg());

  std::stringstream ss;
  core::save_plan(plan, ss);
  const ExecutionPlan loaded = core::load_plan(ss);

  EXPECT_EQ(loaded.row_perm, plan.row_perm);
  EXPECT_EQ(loaded.sparse_order, plan.sparse_order);
  EXPECT_EQ(loaded.stats.round1_applied, plan.stats.round1_applied);
  EXPECT_EQ(loaded.stats.round2_applied, plan.stats.round2_applied);
  EXPECT_DOUBLE_EQ(loaded.stats.dense_ratio_after, plan.stats.dense_ratio_after);
  EXPECT_DOUBLE_EQ(loaded.stats.preprocess_seconds, plan.stats.preprocess_seconds);
  EXPECT_EQ(loaded.stats.round1_candidates, plan.stats.round1_candidates);

  ASSERT_EQ(loaded.tiled.panels().size(), plan.tiled.panels().size());
  for (std::size_t i = 0; i < plan.tiled.panels().size(); ++i) {
    const auto& a = plan.tiled.panels()[i];
    const auto& b = loaded.tiled.panels()[i];
    EXPECT_EQ(a.row_begin, b.row_begin);
    EXPECT_EQ(a.dense_cols, b.dense_cols);
    EXPECT_EQ(a.dense_slot, b.dense_slot);
    EXPECT_EQ(a.dense_val, b.dense_val);
    EXPECT_EQ(a.dense_src_idx, b.dense_src_idx);
  }
  EXPECT_EQ(loaded.tiled.sparse_part(), plan.tiled.sparse_part());
  EXPECT_EQ(loaded.tiled.sparse_src_idx(), plan.tiled.sparse_src_idx());
  EXPECT_EQ(loaded.tiled.stats().nnz_dense, plan.tiled.stats().nnz_dense);
}

// The v3 specialization record survives the round trip field-for-field,
// so an offline-deployed plan selects the same kernel variants as the
// freshly built one.
TEST(PlanIo, RoundTripPreservesSpecializationRecord) {
  const auto m = subject_matrix();
  const ExecutionPlan plan = build_plan(m, small_cfg());
  ASSERT_NE(plan.spec, nullptr);

  std::stringstream ss;
  core::save_plan(plan, ss);
  const ExecutionPlan loaded = core::load_plan(ss);
  ASSERT_NE(loaded.spec, nullptr);

  const auto& a = *plan.spec;
  const auto& b = *loaded.spec;
  EXPECT_EQ(b.enabled, a.enabled);
  EXPECT_EQ(b.short_max, a.short_max);
  EXPECT_EQ(b.medium_max, a.medium_max);
  EXPECT_EQ(b.dense_panels, a.dense_panels);
  EXPECT_EQ(b.dense_tile_rows, a.dense_tile_rows);
  for (std::size_t c = 0; c < kernels::simd::kRowClassCount; ++c) {
    EXPECT_EQ(b.rows_by_class[c], a.rows_by_class[c]) << "class " << c;
    EXPECT_EQ(b.variant[c], a.variant[c]) << "class " << c;
  }
  EXPECT_EQ(b.wants_short_unroll(), a.wants_short_unroll());
}

TEST(PlanIo, LoadedPlanComputesIdenticalResults) {
  const auto m = subject_matrix();
  const ExecutionPlan plan = build_plan(m, small_cfg());
  std::stringstream ss;
  core::save_plan(plan, ss);
  const ExecutionPlan loaded = core::load_plan(ss);

  DenseMatrix x(m.cols(), 8);
  sparse::fill_random(x, 1);
  DenseMatrix y_orig(m.rows(), 8), y_loaded(m.rows(), 8);
  core::run_spmm(plan, x, y_orig);
  core::run_spmm(loaded, x, y_loaded);
  EXPECT_DOUBLE_EQ(y_orig.max_abs_diff(y_loaded), 0.0);
}

TEST(PlanIo, FileRoundTrip) {
  const test::TempFile file("plan_test.bin");
  const auto m = subject_matrix();
  const ExecutionPlan plan = build_plan(m, small_cfg());
  core::save_plan(plan, file.path);
  const ExecutionPlan loaded = core::load_plan(file.path);
  EXPECT_EQ(loaded.row_perm, plan.row_perm);
}

TEST(PlanIo, RejectsWrongMagic) {
  std::stringstream ss("definitely not a plan file at all");
  EXPECT_THROW(core::load_plan(ss), io_error);
}

TEST(PlanIo, RejectsTruncatedFile) {
  const auto m = subject_matrix();
  const ExecutionPlan plan = build_plan(m, small_cfg());
  std::stringstream ss;
  core::save_plan(plan, ss);
  const std::string full = ss.str();
  for (const std::size_t cut : {full.size() / 4, full.size() / 2, full.size() - 8}) {
    std::stringstream truncated(full.substr(0, cut));
    EXPECT_THROW(core::load_plan(truncated), std::runtime_error) << "cut at " << cut;
  }
}

TEST(PlanIo, RejectsCorruptedPermutation) {
  const auto m = subject_matrix();
  const ExecutionPlan plan = build_plan(m, small_cfg());
  std::stringstream ss;
  core::save_plan(plan, ss);
  std::string bytes = ss.str();
  // The row permutation starts right after magic(10) + version(4) +
  // length(8); duplicate the first entry into the second.
  const std::size_t perm_off = 10 + 4 + 8;
  std::memcpy(&bytes[perm_off + sizeof(index_t)], &bytes[perm_off], sizeof(index_t));
  std::stringstream corrupted(bytes);
  EXPECT_THROW(core::load_plan(corrupted), std::runtime_error);
}

TEST(PlanIo, RejectsMissingFile) {
  EXPECT_THROW(core::load_plan(test::temp_path("no_such_plan.bin")), io_error);
}

core::ShardPlan sample_shard_plan() {
  core::ShardPlan sp;
  sp.mode = core::ShardMode::row;
  sp.strategy = core::ShardStrategy::reorder_aware;
  sp.num_devices = 3;
  sp.rows = 96;
  sp.cols = 1024;
  sp.row_shards = {{0, 32, 100}, {32, 64, 140}, {64, 96, 60}};
  return sp;
}

TEST(ShardPlanIo, StreamRoundTripPreservesEverything) {
  const core::ShardPlan sp = sample_shard_plan();
  std::stringstream ss;
  core::save_shard_plan(sp, ss);
  const core::ShardPlan loaded = core::load_shard_plan(ss);
  EXPECT_EQ(loaded, sp);
}

TEST(ShardPlanIo, ColumnModeRoundTrips) {
  core::ShardPlan sp;
  sp.mode = core::ShardMode::column;
  sp.strategy = core::ShardStrategy::nnz_balanced;
  sp.num_devices = 2;
  sp.rows = 64;
  sp.cols = 200;
  sp.col_shards = {{0, 120, 77}, {120, 200, 33}};
  std::stringstream ss;
  core::save_shard_plan(sp, ss);
  EXPECT_EQ(core::load_shard_plan(ss), sp);
}

TEST(ShardPlanIo, FileRoundTrip) {
  const test::TempFile file("shard_plan_test.bin");
  const core::ShardPlan sp = sample_shard_plan();
  core::save_shard_plan(sp, file.path);
  EXPECT_EQ(core::load_shard_plan(file.path), sp);
}

TEST(ShardPlanIo, RejectsWrongMagicAndTruncation) {
  std::stringstream bad("RRSPMMPLAN not a shard plan");  // the *plan* magic
  EXPECT_THROW(core::load_shard_plan(bad), io_error);

  std::stringstream ss;
  core::save_shard_plan(sample_shard_plan(), ss);
  const std::string full = ss.str();
  for (const std::size_t cut : {full.size() / 3, full.size() - 4}) {
    std::stringstream truncated(full.substr(0, cut));
    EXPECT_THROW(core::load_shard_plan(truncated), std::runtime_error) << "cut at " << cut;
  }
}

TEST(ShardPlanIo, RejectsBrokenPartitionsOnBothSides) {
  core::ShardPlan sp = sample_shard_plan();
  sp.row_shards[1].row_begin = 33;  // gap: row 32 uncovered
  std::stringstream sink;
  EXPECT_THROW(core::save_shard_plan(sp, sink), invalid_matrix);

  std::stringstream ss;
  core::save_shard_plan(sample_shard_plan(), ss);
  std::string bytes = ss.str();
  // Corrupt the mode byte (right after magic + version) to an undefined
  // enum value; the loader must reject it rather than trust it.
  bytes[10 + 4] = 7;
  std::stringstream corrupted(bytes);
  EXPECT_THROW(core::load_shard_plan(corrupted), std::runtime_error);
}

TEST(AsptFromParts, RejectsBrokenInvariants) {
  const auto m = subject_matrix();
  const auto good = aspt::build_aspt(m, aspt::AsptConfig{.panel_rows = 32,
                                                         .dense_col_threshold = 2,
                                                         .max_dense_cols = 64});
  auto panels = good.panels();
  auto sp = good.sparse_part();
  auto src = good.sparse_src_idx();

  // Valid parts reassemble fine.
  EXPECT_NO_THROW(aspt::AsptMatrix::from_parts(m.rows(), m.cols(), panels, sp, src));

  // Panel gap.
  auto broken_panels = panels;
  broken_panels[1].row_begin += 1;
  EXPECT_THROW(aspt::AsptMatrix::from_parts(m.rows(), m.cols(), broken_panels, sp, src),
               invalid_matrix);

  // Out-of-range slot.
  broken_panels = panels;
  if (!broken_panels[0].dense_slot.empty()) {
    broken_panels[0].dense_slot[0] =
        static_cast<index_t>(broken_panels[0].dense_cols.size() + 5);
    EXPECT_THROW(aspt::AsptMatrix::from_parts(m.rows(), m.cols(), broken_panels, sp, src),
                 invalid_matrix);
  }

  // Duplicated source index breaks the bijection.
  auto broken_src = src;
  if (broken_src.size() >= 2) {
    broken_src[1] = broken_src[0];
    EXPECT_THROW(aspt::AsptMatrix::from_parts(m.rows(), m.cols(), panels, sp, broken_src),
                 invalid_matrix);
  }
}

// Swapping the source indices of two nonzeros in different rows keeps the
// maps a bijection, but a row's SDDMM outputs would then land in another
// row's slots: a reordered plan relies on row-local maps, so from_parts
// rejects it.
TEST(AsptFromParts, RejectsSourceIndexOutsideItsRow) {
  const auto m = subject_matrix();
  const auto good = aspt::build_aspt(m, aspt::AsptConfig{.panel_rows = 32,
                                                         .dense_col_threshold = 2,
                                                         .max_dense_cols = 64});
  const auto& sp = good.sparse_part();
  ASSERT_GE(sp.nnz(), 2);
  index_t last_row = sp.rows() - 1;
  while (sp.row_nnz(last_row) == 0) --last_row;
  ASSERT_GT(sp.rowptr()[static_cast<std::size_t>(last_row)], 0) << "need two sparse rows";
  auto src = good.sparse_src_idx();
  std::swap(src.front(), src.back());
  EXPECT_THROW(aspt::AsptMatrix::from_parts(m.rows(), m.cols(), good.panels(), sp, src),
               invalid_matrix);
}

}  // namespace
}  // namespace rrspmm
