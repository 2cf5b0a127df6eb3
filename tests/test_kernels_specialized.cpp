// AOT plan-specialized kernel tests: the differential equivalence matrix
// (every row-class mix x K width x runnable ISA x specialization mode
// must be bitwise-identical to the scalar reference), the select_kernels
// selection rule (K-width slots, the classed short-row driver, the
// large-K fall-through, the dense-tile micro-GEMM), the SpecializationPlan
// record builder, and a seeded fuzz sweep of adversarial row-length
// distributions against the generic SIMD kernels.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "aspt/aspt.hpp"
#include "core/pipeline.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/simd/dispatch.hpp"
#include "kernels/simd/specialize.hpp"
#include "kernels/spmm.hpp"
#include "synth/generators.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

namespace simd = kernels::simd;
using sparse::CsrMatrix;
using sparse::DenseMatrix;

std::vector<simd::Isa> runnable_isas() {
  std::vector<simd::Isa> v;
  for (int i = 0; i < static_cast<int>(simd::kIsaCount); ++i) {
    const auto isa = static_cast<simd::Isa>(i);
    if (simd::isa_supported(isa)) v.push_back(isa);
  }
  return v;
}

/// The scalar reference: the generic scalar entries, no variant.
const simd::KernelConfig kScalar{simd::Isa::scalar, std::nullopt, simd::SpecMode::off};

simd::KernelConfig cfg_of(simd::Isa isa,
                          std::optional<simd::SpecializationPlan> spec = std::nullopt,
                          simd::SpecMode mode = simd::SpecMode::rows) {
  simd::KernelConfig cfg;
  cfg.isa = isa;
  cfg.spec = spec;
  cfg.spec_mode = mode;
  return cfg;
}

const char* mode_name(simd::SpecMode mode) {
  return mode == simd::SpecMode::off ? "off" : "rows";
}

constexpr simd::SpecMode kModes[] = {simd::SpecMode::off, simd::SpecMode::rows};

/// Deterministic matrix with exactly `nnz_per_row` strided nonzeros per
/// row: every row lands in one row class, which makes the class mix of a
/// subject exact instead of distributional.
CsrMatrix uniform_rows(index_t rows, index_t cols, index_t nnz_per_row, std::uint64_t seed) {
  std::vector<offset_t> rowptr{0};
  std::vector<index_t> colidx;
  std::vector<value_t> vals;
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + 1;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint64_t>(state >> 33);
  };
  const index_t span = nnz_per_row * 2;
  for (index_t i = 0; i < rows; ++i) {
    const index_t base =
        cols > span ? static_cast<index_t>(next() % static_cast<std::uint64_t>(cols - span)) : 0;
    for (index_t j = 0; j < nnz_per_row; ++j) {
      colidx.push_back(base + 2 * j);
      const value_t mag = 0.25f * static_cast<value_t>(next() % 8 + 1);
      vals.push_back((next() & 1) ? mag : -mag);
    }
    rowptr.push_back(static_cast<offset_t>(colidx.size()));
  }
  return CsrMatrix(rows, cols, rowptr, colidx, vals);
}

/// Short-row matrix (nnz cycling 1..kShortRowMax) — the class the
/// unrolled bodies and the classed driver exist for.
CsrMatrix short_rows_matrix(index_t rows, index_t cols, std::uint64_t seed) {
  std::vector<offset_t> rowptr{0};
  std::vector<index_t> colidx;
  std::vector<value_t> vals;
  std::uint64_t state = seed | 1;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint64_t>(state >> 33);
  };
  for (index_t i = 0; i < rows; ++i) {
    const index_t nnz = 1 + (i % simd::kShortRowMax);
    const index_t base = static_cast<index_t>(
        next() % static_cast<std::uint64_t>(cols - 3 * simd::kShortRowMax));
    for (index_t j = 0; j < nnz; ++j) {
      colidx.push_back(base + 3 * j);
      vals.push_back(0.5f + 0.25f * static_cast<value_t>(next() % 5));
    }
    rowptr.push_back(static_cast<offset_t>(colidx.size()));
  }
  return CsrMatrix(rows, cols, rowptr, colidx, vals);
}

CsrMatrix all_empty_matrix(index_t rows, index_t cols) {
  return CsrMatrix(rows, cols, std::vector<offset_t>(static_cast<std::size_t>(rows) + 1, 0), {},
                   {});
}

/// One huge row in an otherwise empty matrix — the adversarial opposite
/// of the short-row class.
CsrMatrix single_long_row(index_t rows, index_t cols, index_t nnz, index_t which) {
  std::vector<offset_t> rowptr{0};
  std::vector<index_t> colidx;
  std::vector<value_t> vals;
  for (index_t i = 0; i < rows; ++i) {
    if (i == which) {
      for (index_t j = 0; j < nnz; ++j) {
        colidx.push_back(j);
        vals.push_back(0.25f + 0.001f * static_cast<value_t>(j % 64));
      }
    }
    rowptr.push_back(static_cast<offset_t>(colidx.size()));
  }
  return CsrMatrix(rows, cols, rowptr, colidx, vals);
}

/// One equivalence subject: a row-class mix plus the ASpT tiling that
/// stresses it.
struct Mix {
  std::string name;
  CsrMatrix s;
  aspt::AsptConfig acfg;
};

std::vector<Mix> row_class_mixes() {
  std::vector<Mix> out;
  out.push_back({"all_empty", all_empty_matrix(24, 16),
                 aspt::AsptConfig{.panel_rows = 8, .dense_col_threshold = 2,
                                  .max_dense_cols = 16}});
  out.push_back({"short_only", short_rows_matrix(192, 96, 101),
                 aspt::AsptConfig{.panel_rows = 16, .dense_col_threshold = 4,
                                  .max_dense_cols = 32}});
  out.push_back({"medium_only", uniform_rows(96, 128, 12, 103),
                 aspt::AsptConfig{.panel_rows = 16, .dense_col_threshold = 3,
                                  .max_dense_cols = 32}});
  out.push_back({"long_only", uniform_rows(48, 192, 40, 107),
                 aspt::AsptConfig{.panel_rows = 8, .dense_col_threshold = 3,
                                  .max_dense_cols = 48}});
  out.push_back({"single_long_row", single_long_row(17, 256, 200, 9),
                 aspt::AsptConfig{.panel_rows = 4, .dense_col_threshold = 2,
                                  .max_dense_cols = 64}});
  out.push_back({"power_law_mix", synth::chung_lu(256, 192, 6.0, 2.3, 109),
                 aspt::AsptConfig{.panel_rows = 32, .dense_col_threshold = 2,
                                  .max_dense_cols = 64}});
  out.push_back({"dense_panels",
                 synth::clustered_rows(
                     synth::ClusteredParams{.rows = 128, .cols = 256, .num_groups = 8,
                                            .group_cols = 24, .row_nnz = 12, .noise_nnz = 2,
                                            .scatter = false},
                     113),
                 aspt::AsptConfig{.panel_rows = 16, .dense_col_threshold = 2,
                                  .max_dense_cols = 64}});
  return out;
}

/// The issue's K matrix: each AOT width, its off-by-one neighbours, and
/// K=1 (sub-vector on every backend).
const std::vector<index_t> kSpecWidths = {1, 31, 32, 64, 128, 129};

void expect_bitwise_eq(const std::vector<value_t>& a, const std::vector<value_t>& b,
                       const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t j = 0; j < a.size(); ++j) {
    ASSERT_EQ(a[j], b[j]) << what << " diverges at nonzero " << j;
  }
}

std::vector<std::pair<index_t, index_t>> uneven_ranges(index_t rows) {
  std::vector<std::pair<index_t, index_t>> r;
  index_t begin = 0;
  index_t step = 1;
  while (begin < rows) {
    const index_t end = std::min<index_t>(begin + step, rows);
    r.emplace_back(begin, end);
    begin = end;
    step = step * 2 + 1;
  }
  return r;
}

// --- the differential equivalence matrix -----------------------------

class SpecializedEquivalence : public ::testing::TestWithParam<simd::Isa> {};

// The tentpole contract: with a specialization record attached, every
// (row-class mix x K x ISA x specialization mode) cell reproduces the
// scalar reference bit-for-bit on all SpMM variants. "off" pins the
// generic entries; "rows" substitutes the row-wise specializations and,
// where the rule admits it, the dense-tile micro-GEMM — neither may
// change a bit.
TEST_P(SpecializedEquivalence, SpmmMatchesScalarBitwiseInEveryMode) {
  const simd::Isa isa = GetParam();
  for (const simd::SpecMode mode : kModes) {
    for (const Mix& sub : row_class_mixes()) {
      const auto tiled = aspt::build_aspt(sub.s, sub.acfg);
      const auto rows_spec = simd::specialize_rows(sub.s);
      const auto plan_spec = simd::specialize_plan(tiled);
      for (const index_t k : kSpecWidths) {
        SCOPED_TRACE(std::string(mode_name(mode)) + " " + sub.name + " k=" + std::to_string(k));
        DenseMatrix x(sub.s.cols(), k);
        sparse::fill_random(x, 71);

        DenseMatrix y_ref(sub.s.rows(), k), y(sub.s.rows(), k);
        kernels::spmm_rowwise(sub.s, x, y_ref, kScalar);
        kernels::spmm_rowwise(sub.s, x, y, cfg_of(isa, rows_spec, mode));
        EXPECT_DOUBLE_EQ(y.max_abs_diff(y_ref), 0.0) << "spmm_rowwise";

        DenseMatrix ya_ref(sub.s.rows(), k), ya(sub.s.rows(), k);
        kernels::spmm_aspt(tiled, x, ya_ref, nullptr, kScalar);
        kernels::spmm_aspt(tiled, x, ya, nullptr, cfg_of(isa, plan_spec, mode));
        EXPECT_DOUBLE_EQ(ya.max_abs_diff(ya_ref), 0.0) << "spmm_aspt";

        // Range-partitioned execution through the specialized selection
        // reassembles to the same bits.
        DenseMatrix yr(sub.s.rows(), k);
        yr.fill(42.0f);
        for (const auto& [b, e] : uneven_ranges(sub.s.rows())) {
          kernels::spmm_aspt_row_range(tiled, x, yr, b, e, cfg_of(isa, plan_spec, mode));
        }
        EXPECT_DOUBLE_EQ(yr.max_abs_diff(ya_ref), 0.0) << "spmm_aspt_row_range";

        DenseMatrix yrw(sub.s.rows(), k);
        yrw.fill(-3.0f);
        for (const auto& [b, e] : uneven_ranges(sub.s.rows())) {
          kernels::spmm_rowwise(sub.s, x, yrw, b, e, cfg_of(isa, rows_spec, mode));
        }
        EXPECT_DOUBLE_EQ(yrw.max_abs_diff(y_ref), 0.0) << "spmm_rowwise range";
      }
    }
  }
}

TEST_P(SpecializedEquivalence, SddmmMatchesScalarBitwiseInEveryMode) {
  const simd::Isa isa = GetParam();
  for (const simd::SpecMode mode : kModes) {
    for (const Mix& sub : row_class_mixes()) {
      const auto tiled = aspt::build_aspt(sub.s, sub.acfg);
      const auto rows_spec = simd::specialize_rows(sub.s);
      const auto plan_spec = simd::specialize_plan(tiled);
      for (const index_t k : kSpecWidths) {
        SCOPED_TRACE(std::string(mode_name(mode)) + " " + sub.name + " k=" + std::to_string(k));
        DenseMatrix x(sub.s.cols(), k), ymat(sub.s.rows(), k);
        sparse::fill_random(x, 73);
        sparse::fill_random(ymat, 79);

        std::vector<value_t> ref, got;
        kernels::sddmm_rowwise(sub.s, x, ymat, ref, kScalar);
        kernels::sddmm_rowwise(sub.s, x, ymat, got, cfg_of(isa, rows_spec, mode));
        expect_bitwise_eq(ref, got, "sddmm_rowwise");

        std::vector<value_t> aref, agot;
        kernels::sddmm_aspt(tiled, x, ymat, aref, nullptr, kScalar);
        kernels::sddmm_aspt(tiled, x, ymat, agot, nullptr, cfg_of(isa, plan_spec, mode));
        expect_bitwise_eq(aref, agot, "sddmm_aspt");

        std::vector<value_t> rgot(aref.size(), value_t{0});
        for (const auto& [b, e] : uneven_ranges(sub.s.rows())) {
          kernels::sddmm_aspt_row_range(tiled, x, ymat, rgot.data(), rgot.size(), b, e,
                                        cfg_of(isa, plan_spec, mode));
        }
        expect_bitwise_eq(aref, rgot, "sddmm_aspt_row_range");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, SpecializedEquivalence,
                         ::testing::ValuesIn(runnable_isas()),
                         [](const ::testing::TestParamInfo<simd::Isa>& p) {
                           return std::string(simd::isa_name(p.param));
                         });

// --- the SpecializationPlan record -----------------------------------

// A short row has 1..kShortRowMax nonzeros: empty rows and rows one past
// the bound are not short.
TEST(SpecializationRecord, ClassifyThresholds) {
  const CsrMatrix m = test::csr({{0, 0, 0, 0, 0, 0},
                                 {1, 0, 0, 0, 0, 0},
                                 {1, 1, 1, 1, 0, 0},
                                 {1, 1, 1, 1, 1, 0}});
  ASSERT_EQ(simd::kShortRowMax, 4);
  const auto spec = simd::specialize_rows(m);
  EXPECT_EQ(spec.total_rows(), 4u);
  EXPECT_EQ(spec.short_rows, 2u);
  EXPECT_TRUE(spec.has_short_rows());
}

TEST(SpecializationRecord, HistogramsAreExactOnUniformMixes) {
  const auto shorts = simd::specialize_rows(short_rows_matrix(192, 96, 5));
  EXPECT_EQ(shorts.short_rows, 192u);
  EXPECT_EQ(shorts.total_rows(), 192u);
  EXPECT_TRUE(shorts.has_short_rows());

  const auto mediums = simd::specialize_rows(uniform_rows(96, 128, 12, 7));
  EXPECT_EQ(mediums.total_rows(), 96u);
  EXPECT_FALSE(mediums.has_short_rows());

  const auto longs = simd::specialize_rows(uniform_rows(48, 192, 40, 11));
  EXPECT_EQ(longs.total_rows(), 48u);
  EXPECT_FALSE(longs.has_short_rows());

  const auto empties = simd::specialize_rows(all_empty_matrix(24, 16));
  EXPECT_EQ(empties.total_rows(), 24u);
  EXPECT_FALSE(empties.has_short_rows());
}

TEST(SpecializationRecord, PlanRecordCountsDensePanels) {
  const CsrMatrix clustered = synth::clustered_rows(
      synth::ClusteredParams{.rows = 128, .cols = 256, .num_groups = 8, .group_cols = 24,
                             .row_nnz = 12, .noise_nnz = 0, .scatter = false},
      13);
  const auto tiled = aspt::build_aspt(
      clustered, aspt::AsptConfig{.panel_rows = 16, .dense_col_threshold = 2,
                                  .max_dense_cols = 64});
  const auto spec = simd::specialize_plan(tiled);
  EXPECT_GT(spec.dense_tile_rows, 0u);
  EXPECT_LE(spec.dense_full_rows, spec.dense_tile_rows);

  // A matrix where no column qualifies as dense has no panel statistics.
  const auto sparse_only = simd::specialize_plan(aspt::build_aspt(
      synth::erdos_renyi(96, 80, 400, 17),
      aspt::AsptConfig{.panel_rows = 16, .dense_col_threshold = 1 << 20, .max_dense_cols = 8}));
  EXPECT_EQ(sparse_only.dense_tile_rows, 0u);
  EXPECT_EQ(sparse_only.dense_full_fraction(), 0.0);
}

// --- the substitution policy -----------------------------------------

simd::SpecializationPlan short_heavy_record() {
  simd::SpecializationPlan p;
  p.rows = 100;
  p.short_rows = 100;
  return p;
}

simd::SpecializationPlan long_only_record() {
  simd::SpecializationPlan p;
  p.rows = 100;
  return p;
}

void expect_generic(const simd::KernelSelection& sel, const simd::KernelTable& t,
                    const std::string& what) {
  EXPECT_FALSE(sel.specialized) << what;
  EXPECT_EQ(sel.spmm_rows, t.spmm_rows) << what;
  EXPECT_EQ(sel.spmm_panel, t.spmm_panel) << what;
  EXPECT_EQ(sel.sddmm_rows, t.sddmm_rows) << what;
  EXPECT_EQ(sel.sddmm_panel, t.sddmm_panel) << what;
}

TEST(SpecializedSelection, TableEntriesMatchBuildConfiguration) {
  for (const simd::Isa isa : runnable_isas()) {
    const simd::KernelTable& t = simd::table(cfg_of(isa));
    for (std::size_t slot = 0; slot < simd::kSpecKWidthCount; ++slot) {
      EXPECT_NE(t.spmm_rows_kw[slot], nullptr) << simd::isa_name(isa);
      EXPECT_NE(t.sddmm_rows_kw[slot], nullptr) << simd::isa_name(isa);
    }
    EXPECT_NE(t.spmm_rows_classed, nullptr) << simd::isa_name(isa);
    EXPECT_NE(t.spmm_panel_dense, nullptr) << simd::isa_name(isa);
  }
}

TEST(SpecializedSelection, NoRecordSelectsGenericEntries) {
  for (const simd::Isa isa : runnable_isas()) {
    const simd::KernelConfig cfg = cfg_of(isa);
    const simd::KernelTable& t = simd::table(cfg);
    for (const index_t k : kSpecWidths) {
      expect_generic(simd::select_kernels(cfg, k), t,
                     std::string(simd::isa_name(isa)) + " k=" + std::to_string(k));
    }
  }
}

TEST(SpecializedSelection, KWidthSlotsSubstituteRowEntriesOnly) {
  const auto spec = short_heavy_record();
  for (const simd::Isa isa : runnable_isas()) {
    const simd::KernelConfig cfg = cfg_of(isa, spec);
    const simd::KernelTable& t = simd::table(cfg);
    for (std::size_t slot = 0; slot < simd::kSpecKWidthCount; ++slot) {
      const index_t k = simd::kSpecKWidths[slot];
      if (k > simd::kShortRowKWidthMax) continue;  // covered by the fall-through test
      const simd::KernelSelection sel = simd::select_kernels(cfg, k);
      SCOPED_TRACE(std::string(simd::isa_name(isa)) + " k=" + std::to_string(k));
      EXPECT_TRUE(sel.specialized);
      EXPECT_EQ(sel.spmm_rows, t.spmm_rows_kw[slot]);
      EXPECT_EQ(sel.sddmm_rows, t.sddmm_rows_kw[slot]);
      // The panel entries have no K-width variants.
      EXPECT_EQ(sel.spmm_panel, t.spmm_panel);
      EXPECT_EQ(sel.sddmm_panel, t.sddmm_panel);
    }
  }
}

TEST(SpecializedSelection, ShortRowHeavyPlansKeepGenericRowsAtLargeK) {
  const auto shorts = short_heavy_record();
  const auto longs = long_only_record();
  const int big_slot = simd::spec_k_slot(128);
  ASSERT_GE(big_slot, 0);
  ASSERT_GT(index_t{128}, simd::kShortRowKWidthMax);
  for (const simd::Isa isa : runnable_isas()) {
    SCOPED_TRACE(simd::isa_name(isa));
    const simd::KernelTable& t = simd::table(cfg_of(isa));

    // Short-row-heavy past kShortRowKWidthMax: neither the K-width body
    // (front-end bound on tiny rows) nor the classed driver (neutral at
    // K=128) pays, so both the K-width slot and an off-slot K stay generic.
    for (const index_t k : {index_t{128}, index_t{129}}) {
      expect_generic(simd::select_kernels(cfg_of(isa, shorts), k), t,
                     "short-heavy k=" + std::to_string(k));
    }

    // The same K with no short-row mass takes the K-width instantiation.
    const simd::KernelSelection l = simd::select_kernels(cfg_of(isa, longs), 128);
    EXPECT_TRUE(l.specialized);
    EXPECT_EQ(l.spmm_rows, t.spmm_rows_kw[static_cast<std::size_t>(big_slot)]);
    EXPECT_EQ(l.sddmm_rows, t.sddmm_rows_kw[static_cast<std::size_t>(big_slot)]);
  }
}

TEST(SpecializedSelection, OffSlotWidthsUseClassedDriverOnlyForShortRowPlans) {
  const auto shorts = short_heavy_record();
  const auto longs = long_only_record();
  for (const simd::Isa isa : runnable_isas()) {
    SCOPED_TRACE(simd::isa_name(isa));
    const simd::KernelTable& t = simd::table(cfg_of(isa));
    for (const index_t k : {index_t{1}, index_t{31}, index_t{48}}) {
      ASSERT_LT(simd::spec_k_slot(k), 0);
      const simd::KernelSelection s = simd::select_kernels(cfg_of(isa, shorts), k);
      EXPECT_TRUE(s.specialized) << "k=" << k;
      EXPECT_EQ(s.spmm_rows, t.spmm_rows_classed) << "k=" << k;
      expect_generic(simd::select_kernels(cfg_of(isa, longs), k), t,
                     "long-only k=" + std::to_string(k));
    }
  }
}

TEST(SpecializedSelection, OffModeSelectsGeneric) {
  for (const simd::Isa isa : runnable_isas()) {
    const simd::KernelConfig off_mode = cfg_of(isa, short_heavy_record(), simd::SpecMode::off);
    const simd::KernelSelection sel = simd::select_kernels(off_mode, simd::kSpecKWidths[0]);
    expect_generic(sel, simd::table(off_mode), "off mode " + std::string(simd::isa_name(isa)));
    EXPECT_EQ(sel.spmm_panel_dense, nullptr) << simd::isa_name(isa);
  }
}

simd::SpecializationPlan dense_tile_record(std::uint64_t full_rows) {
  simd::SpecializationPlan p = long_only_record();
  p.dense_tile_rows = 100;
  p.dense_full_rows = full_rows;
  return p;
}

// The micro-GEMM rule: rows mode picks the dense-tile micro-GEMM at
// K <= 32 for a record whose dense tile rows are at least half fully
// dense. K=33 and K=64 keep the generic panel body, as do a sparser
// record and no record, and SpecMode::off never picks it.
TEST(SpecializedSelection, MicroGemmNeedsKUpTo32AndFullDenseTiles) {
  ASSERT_EQ(simd::kMicroGemmKMax, 32);
  const auto full = dense_tile_record(50);
  const auto partial = dense_tile_record(49);
  for (const simd::Isa isa : runnable_isas()) {
    SCOPED_TRACE(simd::isa_name(isa));
    const simd::KernelTable& t = simd::table(cfg_of(isa));
    const simd::KernelConfig rows = cfg_of(isa, full);
    EXPECT_EQ(simd::select_kernels(rows, 1).spmm_panel_dense, t.spmm_panel_dense);
    EXPECT_EQ(simd::select_kernels(rows, 32).spmm_panel_dense, t.spmm_panel_dense);
    EXPECT_EQ(simd::select_kernels(rows, 33).spmm_panel_dense, nullptr);
    EXPECT_EQ(simd::select_kernels(rows, 64).spmm_panel_dense, nullptr);
    for (const index_t k : {index_t{1}, index_t{8}, index_t{32}, index_t{64}}) {
      EXPECT_EQ(simd::select_kernels(cfg_of(isa, full, simd::SpecMode::off), k).spmm_panel_dense,
                nullptr)
          << "off k=" << k;
      EXPECT_EQ(simd::select_kernels(cfg_of(isa, partial), k).spmm_panel_dense, nullptr)
          << "partial k=" << k;
      EXPECT_EQ(simd::select_kernels(cfg_of(isa), k).spmm_panel_dense, nullptr)
          << "no record k=" << k;
    }
  }
}

// --- pinned decisions --------------------------------------------------

/// Sparse-remainder rows with 1..kShortRowMax nonzeros: the fact that
/// trips the short-row guard.
std::uint64_t short_rows_of(const CsrMatrix& sparse_part) {
  std::uint64_t n = 0;
  for (index_t i = 0; i < sparse_part.rows(); ++i) {
    const index_t nnz = sparse_part.row_nnz(i);
    if (nnz > 0 && nnz <= simd::kShortRowMax) ++n;
  }
  return n;
}

/// One selection, coded as four characters: 'S' when specialized ('-'
/// otherwise); the SpMM row entry and the SDDMM row entry, each 'g'
/// generic, 'k' the K-width instantiation or 'c' the classed short-row
/// driver; 'M' when the dense-tile micro-GEMM was picked ('-' otherwise).
std::string selection_code(const simd::KernelSelection& sel, const simd::KernelTable& t,
                           index_t k) {
  const int slot = simd::spec_k_slot(k);
  const auto entry = [&](auto got, auto generic, auto kw, auto classed) {
    if (got == generic) return 'g';
    if (slot >= 0 && got == kw[slot]) return 'k';
    if (classed != nullptr && got == classed) return 'c';
    return '?';
  };
  std::string code;
  code += sel.specialized ? 'S' : '-';
  code += entry(sel.spmm_rows, t.spmm_rows, t.spmm_rows_kw, t.spmm_rows_classed);
  code += entry(sel.sddmm_rows, t.sddmm_rows, t.sddmm_rows_kw,
                static_cast<simd::KernelTable::SddmmRowsFn>(nullptr));
  code += sel.spmm_panel_dense == nullptr ? '-' : (sel.spmm_panel_dense == t.spmm_panel_dense
                                                       ? 'M'
                                                       : '?');
  EXPECT_EQ(sel.spmm_panel, t.spmm_panel);
  EXPECT_EQ(sel.sddmm_panel, t.sddmm_panel);
  return code;
}

constexpr index_t kPinnedWidths[] = {8, 16, 32, 48, 64, 96, 128};

/// perfbench's scattered_attn matrix (seed 1) and its default plan.
core::ExecutionPlan scattered_attn_plan() {
  return core::build_plan(synth::erdos_renyi(8192, 8192, 8192 * 12, 1));
}

// Today's kernel choices, recorded per plan, ISA and K. The decisions
// follow from two facts of the tiling: whether any sparse-remainder row
// has 1..kShortRowMax nonzeros, and what fraction of the dense-tile rows
// is fully dense. Two quirks are pinned as they stand: scattered_attn's 62
// short rows of 8192 keep K=96/128 on the generic drivers, and its
// near-empty dense tiles (dense ratio below 0.001) still pick the
// micro-GEMM at K <= 32.
TEST(SpecializedSelection, PinnedDecisionsPerPlanIsaAndK) {
  core::PipelineConfig no_tiles;
  no_tiles.aspt.dense_col_threshold = 1 << 20;
  const core::ExecutionPlan short_plan = core::build_plan(short_rows_matrix(512, 256, 5));
  const core::ExecutionPlan long_plan =
      core::build_plan_nr(uniform_rows(256, 512, 12, 7), no_tiles);
  const core::ExecutionPlan dense_plan = core::build_plan(synth::clustered_rows(
      synth::ClusteredParams{.rows = 256, .cols = 512, .num_groups = 4, .group_cols = 64,
                             .row_nnz = 64, .noise_nnz = 0, .scatter = false,
                             .disjoint_pools = true},
      331));
  const core::ExecutionPlan attn_plan = scattered_attn_plan();
  const CsrMatrix power_law = synth::chung_lu(512, 256, 6.0, 2.3, 109);
  const CsrMatrix long_rows = uniform_rows(128, 256, 40, 11);

  ASSERT_GT(short_rows_of(short_plan.tiled.sparse_part()), 0u);
  ASSERT_EQ(short_rows_of(long_plan.tiled.sparse_part()), 0u);
  ASSERT_EQ(attn_plan.tiled.sparse_part().rows(), 8192);
  ASSERT_EQ(short_rows_of(attn_plan.tiled.sparse_part()), 62u);
  ASSERT_LT(attn_plan.tiled.stats().dense_ratio(), 0.001);
  ASSERT_GT(short_rows_of(power_law), 0u);
  ASSERT_EQ(short_rows_of(long_rows), 0u);

  struct Case {
    std::string name;
    std::function<simd::KernelConfig(simd::Isa)> cfg;
    std::vector<std::string> codes;  ///< one per kPinnedWidths entry
  };
  const auto plan_cfg = [](const core::ExecutionPlan& plan) {
    return [&plan](simd::Isa isa) {
      const simd::KernelConfig pinned = cfg_of(isa);
      return core::kernel_config(plan, &pinned);
    };
  };
  const auto rows_cfg = [](const CsrMatrix& m) {
    return [&m](simd::Isa isa) { return cfg_of(isa, simd::specialize_rows(m)); };
  };
  ASSERT_GE(plan_cfg(dense_plan)(simd::Isa::scalar).spec->dense_full_fraction(), 0.5);

  const std::vector<Case> cases = {
      //                        K=8     16      32      48      64      96      128
      {"short_rows", plan_cfg(short_plan),
       {"Scg-", "Scg-", "Skk-", "Scg-", "Skk-", "-gg-", "-gg-"}},
      {"no_short_rows", plan_cfg(long_plan),
       {"-gg-", "-gg-", "Skk-", "-gg-", "Skk-", "-gg-", "Skk-"}},
      {"dense_full", plan_cfg(dense_plan),
       {"-ggM", "-ggM", "SkkM", "-gg-", "Skk-", "-gg-", "Skk-"}},
      {"scattered_attn", plan_cfg(attn_plan),
       {"ScgM", "ScgM", "SkkM", "Scg-", "Skk-", "-gg-", "-gg-"}},
      {"rows_power_law", rows_cfg(power_law),
       {"Scg-", "Scg-", "Skk-", "Scg-", "Skk-", "-gg-", "-gg-"}},
      {"rows_long", rows_cfg(long_rows),
       {"-gg-", "-gg-", "Skk-", "-gg-", "Skk-", "-gg-", "Skk-"}},
  };
  for (const Case& c : cases) {
    ASSERT_EQ(c.codes.size(), std::size(kPinnedWidths));
    for (const simd::Isa isa : runnable_isas()) {
      const simd::KernelConfig cfg = c.cfg(isa);
      const simd::KernelTable& t = simd::table(cfg);
      for (std::size_t i = 0; i < std::size(kPinnedWidths); ++i) {
        const index_t k = kPinnedWidths[i];
        EXPECT_EQ(selection_code(simd::select_kernels(cfg, k), t, k), c.codes[i])
            << c.name << " " << simd::isa_name(isa) << " k=" << k;
      }
    }
  }
}

// --- seeded fuzz sweep ------------------------------------------------

/// 200 seeds of adversarial row-length distributions (all-empty, a
/// single 10k-nnz row, power-law) checked bitwise against the generic
/// SIMD kernels on the auto-resolved backend.
TEST(FuzzSpecializedKernels, AdversarialShapesMatchGenericSimdBitwise) {
  constexpr int kSeeds = 200;
  for (int seed = 0; seed < kSeeds; ++seed) {
    std::mt19937_64 rng(0xC0FFEEu + static_cast<std::uint64_t>(seed) * 7919u);
    CsrMatrix s = [&]() -> CsrMatrix {
      switch (seed % 3) {
        case 0:  // every row empty
          return all_empty_matrix(1 + static_cast<index_t>(rng() % 96),
                                  1 + static_cast<index_t>(rng() % 96));
        case 1: {  // one 10k-nnz row among empties
          const index_t rows = 3 + static_cast<index_t>(rng() % 29);
          const index_t nnz = 10000;
          const index_t cols = nnz + static_cast<index_t>(rng() % 512);
          return single_long_row(rows, cols, nnz, static_cast<index_t>(rng() % rows));
        }
        default:  // power-law row lengths (short/medium/long mix)
          return synth::chung_lu(64 + static_cast<index_t>(rng() % 384),
                                 64 + static_cast<index_t>(rng() % 192),
                                 2.0 + static_cast<double>(rng() % 80) / 10.0,
                                 2.1 + static_cast<double>(rng() % 10) / 10.0,
                                 0x5EED + static_cast<std::uint64_t>(seed));
      }
    }();
    const index_t k = kSpecWidths[static_cast<std::size_t>(seed) % kSpecWidths.size()];
    SCOPED_TRACE("seed=" + std::to_string(seed) + " rows=" + std::to_string(s.rows()) +
                 " nnz=" + std::to_string(s.nnz()) + " k=" + std::to_string(k));

    DenseMatrix x(s.cols(), k);
    sparse::fill_random(x, 0x11u + static_cast<std::uint64_t>(seed));

    simd::KernelConfig generic;  // auto ISA, no record
    simd::KernelConfig spec = generic;
    spec.spec = simd::specialize_rows(s);

    DenseMatrix y_gen(s.rows(), k), y_spec(s.rows(), k);
    kernels::spmm_rowwise(s, x, y_gen, generic);
    kernels::spmm_rowwise(s, x, y_spec, spec);
    ASSERT_DOUBLE_EQ(y_spec.max_abs_diff(y_gen), 0.0) << "spmm";

    DenseMatrix ymat(s.rows(), k);
    sparse::fill_random(ymat, 0x29u + static_cast<std::uint64_t>(seed));
    std::vector<value_t> d_gen, d_spec;
    kernels::sddmm_rowwise(s, x, ymat, d_gen, generic);
    kernels::sddmm_rowwise(s, x, ymat, d_spec, spec);
    expect_bitwise_eq(d_gen, d_spec, "sddmm");
  }
}

}  // namespace
}  // namespace rrspmm
