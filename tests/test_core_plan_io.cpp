#include <gtest/gtest.h>
#include <cstring>

#include <sstream>
#include <string>

#include "core/fingerprint.hpp"
#include "core/pipeline.hpp"
#include "core/plan_io.hpp"
#include "kernels/spmm.hpp"
#include "sparse/permute.hpp"
#include "plan_v4_fixture.hpp"
#include "synth/generators.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

using core::build_plan;
using core::ExecutionPlan;
using sparse::CsrMatrix;
using sparse::DenseMatrix;
using test::Bytes;

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

// The writer stores no specialization record: a v5 file ends with the
// tiling, and the loaded plan's record is recomputed from it, equal to
// the freshly built plan's.
TEST(PlanIo, RoundTripPreservesSpecializationRecord) {
  const auto m = subject_matrix();
  const ExecutionPlan plan = build_plan(m, small_cfg());

  std::stringstream ss;
  core::save_plan(plan, ss);
  const std::string bytes = ss.str();
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 10, sizeof(version));
  EXPECT_EQ(version, 5u);
  const auto& src = plan.tiled.sparse_src_idx();
  const std::size_t tail = src.size() * sizeof(offset_t);
  ASSERT_GE(bytes.size(), tail);
  EXPECT_EQ(std::memcmp(bytes.data() + bytes.size() - tail, src.data(), tail), 0)
      << "the file must end with the tiling's last array";

  const ExecutionPlan loaded = core::load_plan(ss);
  EXPECT_EQ(loaded.spec, kernels::simd::specialize_plan(loaded.tiled));
  EXPECT_EQ(loaded.spec, plan.spec);
}

/// Row groups one panel tall, each row covering its group's whole
/// disjoint 64-column pool: every dense-tile row is fully dense.
CsrMatrix dense_full_matrix() {
  synth::ClusteredParams p;
  p.rows = 256;
  p.cols = 512;
  p.num_groups = 4;
  p.group_cols = 64;
  p.row_nnz = 64;
  p.noise_nnz = 0;
  p.scatter = false;
  p.disjoint_pools = true;
  return synth::clustered_rows(p, 331);
}

/// Expects two plans' records to make select_kernels pick the same
/// entries at K = 8..128 on the auto-resolved ISA.
void expect_same_selection(const ExecutionPlan& a, const ExecutionPlan& b) {
  const kernels::simd::KernelConfig ca = core::kernel_config(a);
  const kernels::simd::KernelConfig cb = core::kernel_config(b);
  for (const index_t k : {8, 16, 32, 48, 64, 96, 128}) {
    const auto sa = kernels::simd::select_kernels(ca, k);
    const auto sb = kernels::simd::select_kernels(cb, k);
    EXPECT_EQ(sa.specialized, sb.specialized) << "k=" << k;
    EXPECT_EQ(sa.spmm_rows, sb.spmm_rows) << "k=" << k;
    EXPECT_EQ(sa.sddmm_rows, sb.sddmm_rows) << "k=" << k;
    EXPECT_EQ(sa.spmm_panel_dense, sb.spmm_panel_dense) << "k=" << k;
  }
}

// A v3/v4 record that disagrees with its own tiling (no fully dense rows
// stored for a plan whose dense-tile rows are all fully dense, generic
// variants everywhere) is dropped: the loaded plan selects what the
// freshly built plan selects, micro-GEMM included.
TEST(PlanIo, StoredRecordDisagreeingWithTheTilingIsRecomputed) {
  const ExecutionPlan plan = build_plan(dense_full_matrix());
  ASSERT_EQ(plan.spec.dense_full_fraction(), 1.0);
  test::StoredRecord stale = test::stored_record_of(plan);
  stale.dense_full_rows = 0;
  for (std::uint8_t& v : stale.variant) v = 0;

  for (const std::string& file :
       {test::v3_plan(plan, stale), test::v4_plan(plan, stale, "", 0, {})}) {
    std::stringstream in(file);
    const ExecutionPlan loaded = core::load_plan(in);
    EXPECT_EQ(in.peek(), std::char_traits<char>::eof());
    EXPECT_EQ(loaded.spec, kernels::simd::specialize_plan(loaded.tiled));
    ASSERT_NE(kernels::simd::select_kernels(core::kernel_config(loaded), 32).spmm_panel_dense,
              nullptr);
    expect_same_selection(loaded, plan);
  }
}

// The stored record is still validated before it is dropped: a variant
// past the largest the writers knew, a non-positive short-row bound, a
// medium bound below it, or a file cut inside the record is an io_error,
// in v3 and v4 files alike.
TEST(PlanIo, CorruptStoredRecordRaisesIoError) {
  const ExecutionPlan plan = build_plan(subject_matrix(), small_cfg());
  const test::StoredRecord good = test::stored_record_of(plan);
  const auto files = [&](const test::StoredRecord& r) {
    return std::vector<std::string>{test::v3_plan(plan, r), test::v4_plan(plan, r, "", 0, {})};
  };
  for (const std::string& file : files(good)) {
    std::stringstream in(file);
    EXPECT_NO_THROW(core::load_plan(in));
  }

  test::StoredRecord bad_variant = good;
  bad_variant.variant[2] = 3;
  test::StoredRecord zero_short = good;
  zero_short.short_max = 0;
  test::StoredRecord inverted = good;
  inverted.medium_max = good.short_max - 1;
  for (const auto* r : {&bad_variant, &zero_short, &inverted}) {
    for (const std::string& file : files(*r)) {
      std::stringstream in(file);
      EXPECT_THROW(core::load_plan(in), io_error);
    }
  }

  // Cut inside the record: after 3 of its 4 variant bytes (v3), or
  // halfway through the dense_full_rows counter (v4, with an empty
  // fingerprint and no route records after it).
  for (const std::string& file : files(good)) {
    const std::size_t cut = file.size() - (file[10] == 3 ? 1 : 4 + 8 + 8);
    std::stringstream in(file.substr(0, cut));
    EXPECT_THROW(core::load_plan(in), io_error);
  }
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

// A header that declares the largest accepted count with no data behind
// it must fail as a truncated file, not allocate what the header claims.
TEST(PlanIo, HostileHeaderCountsRaiseIoError) {
  Bytes perm;
  perm.magic("RRSPMMPLAN").put<std::uint32_t>(4).put<std::uint64_t>(1ULL << 33);
  std::stringstream perm_in(perm.s);
  EXPECT_THROW(core::load_plan(perm_in), io_error);

  // Empty permutations, a zeroed stats block, then the panel count.
  Bytes panels;
  panels.magic("RRSPMMPLAN").put<std::uint32_t>(4).put<std::uint64_t>(0).put<std::uint64_t>(0);
  panels.s.append(99, '\0');
  panels.put<index_t>(0).put<index_t>(0).put<std::uint64_t>(1ULL << 32);
  std::stringstream panels_in(panels.s);
  EXPECT_THROW(core::load_plan(panels_in), io_error);
}

// Plan files from binaries that persisted router records: v4 ends with a
// matrix fingerprint, a record count and 43-byte records, which the
// reader skips. Two inputs: two live-arm records, and a table of arms
// retired before the router was (micro-GEMM, spec-all, shard workload,
// pinned shard strategy).
TEST(PlanIo, V4RouteRecordsAreSkipped) {
  const auto expect_loads_exactly = [](const CsrMatrix& m, const ExecutionPlan& plan,
                                       const std::string& fixture, const char* what) {
    SCOPED_TRACE(what);
    std::stringstream in(fixture);
    const ExecutionPlan loaded = core::load_plan(in);
    EXPECT_EQ(in.peek(), std::char_traits<char>::eof()) << "records not skipped exactly";
    DenseMatrix x(m.cols(), 8);
    sparse::fill_random(x, 2);
    DenseMatrix y_plan(m.rows(), 8), y_loaded(m.rows(), 8);
    core::run_spmm(plan, x, y_plan);
    core::run_spmm(loaded, x, y_loaded);
    EXPECT_DOUBLE_EQ(y_plan.max_abs_diff(y_loaded), 0.0);
  };

  const auto m = subject_matrix();
  const ExecutionPlan plan = build_plan(m, small_cfg());
  test::V4RouteRecord fast;
  fast.spec_mode = 1;
  const std::string fixture =
      test::v4_plan_with_records(plan, "fixture-fp", 2, {test::V4RouteRecord{}, fast});
  expect_loads_exactly(m, plan, fixture, "live arms");

  const CsrMatrix small = synth::erdos_renyi(64, 64, 512, 42);
  const ExecutionPlan small_plan = build_plan(small);
  test::V4RouteRecord live, micro_gemm, spec_all, shard, pinned;
  micro_gemm.micro_gemm = 1;
  spec_all.spec_mode = 3;
  shard.workload = 3;
  shard.shard_strategy = 2;
  pinned.spec_mode = 1;
  pinned.shard_strategy = 1;
  const std::vector<test::V4RouteRecord> retired = {live, micro_gemm, spec_all, shard, pinned};
  expect_loads_exactly(small, small_plan,
                       test::v4_plan_with_records(small_plan, core::matrix_fingerprint(small),
                                                  retired.size(), retired),
                       "retired arms");

  // A record cut mid-way is a truncated file.
  std::stringstream cut(fixture.substr(0, fixture.size() - 20));
  EXPECT_THROW(core::load_plan(cut), io_error);

  // The count stays bounded: one past 2^20 is rejected before any skip.
  std::stringstream huge(test::v4_plan_with_records(plan, "fixture-fp", (1ULL << 20) + 1,
                                                    {test::V4RouteRecord{}, fast}));
  try {
    core::load_plan(huge);
    ADD_FAILURE() << "route-record count 2^20+1 loaded";
  } catch (const io_error& e) {
    EXPECT_NE(std::string(e.what()).find("implausible"), std::string::npos) << e.what();
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
