// SIMD kernel layer tests: the bitwise-equivalence matrix (every
// compiled-and-supported backend must reproduce the scalar reference
// exactly), the fused-arithmetic properties (every backend equals the
// std::fma reference shapes, and a guard case proves the steps fuse),
// runtime dispatch (ladder fallback, env override), and the per-ISA
// invocation counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "aspt/aspt.hpp"
#include "core/pipeline.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/simd/dispatch.hpp"
#include "kernels/simd/specialize.hpp"
#include "kernels/spmm.hpp"
#include "runtime/execute.hpp"
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

simd::KernelConfig cfg_of(simd::Isa isa) {
  simd::KernelConfig cfg;
  cfg.isa = isa;
  return cfg;
}

/// The scalar reference: the generic scalar entries, no variant.
const simd::KernelConfig kScalar{simd::Isa::scalar, nullptr, simd::SpecMode::off};

/// One equivalence subject: a matrix plus the tiling that stresses a
/// particular ASpT shape (single-row panels, all-dense, all-sparse, ...).
struct Subject {
  std::string name;
  CsrMatrix s;
  aspt::AsptConfig acfg;
};

std::vector<Subject> subjects() {
  std::vector<Subject> out;

  // Leading, trailing, and interior empty rows.
  out.push_back({"empty_rows",
                 test::csr({{0, 0, 0, 0},
                            {1, 0, 2, 0},
                            {0, 0, 0, 0},
                            {0, 3, 0, 4},
                            {5, 0, 0, 6},
                            {0, 0, 0, 0}}),
                 aspt::AsptConfig{.panel_rows = 2, .dense_col_threshold = 2, .max_dense_cols = 8}});

  // Degenerate panels: one row each, so every dense tile is a single row.
  out.push_back({"single_row_panels", synth::erdos_renyi(64, 48, 400, 11),
                 aspt::AsptConfig{.panel_rows = 1, .dense_col_threshold = 2, .max_dense_cols = 64}});

  // Every nonzero lands in a dense tile (sparse remainder empty).
  {
    std::vector<std::vector<value_t>> rows(32, {1, 0, 2, 0, 3, 0, 0, 4});
    out.push_back({"all_dense", test::csr(rows),
                   aspt::AsptConfig{.panel_rows = 8, .dense_col_threshold = 2,
                                    .max_dense_cols = 1024}});
  }

  // No column qualifies as dense: the whole matrix goes through the
  // sparse-remainder path.
  out.push_back({"all_sparse", synth::erdos_renyi(96, 80, 600, 17),
                 aspt::AsptConfig{.panel_rows = 16, .dense_col_threshold = 1 << 20,
                                  .max_dense_cols = 64}});

  // Generic skewed matrix with a real dense/sparse mix.
  out.push_back({"mixed", synth::chung_lu(200, 150, 8.0, 2.4, 3),
                 aspt::AsptConfig{.panel_rows = 32, .dense_col_threshold = 2,
                                  .max_dense_cols = 64}});
  return out;
}

const std::vector<index_t> kWidths = {1, 7, 8, 32, 33};

/// Uneven partition of [0, rows) exercising range boundaries that do not
/// line up with panels or vector widths.
std::vector<std::pair<index_t, index_t>> uneven_ranges(index_t rows) {
  std::vector<std::pair<index_t, index_t>> r;
  index_t begin = 0;
  index_t step = 1;
  while (begin < rows) {
    const index_t end = std::min<index_t>(begin + step, rows);
    r.emplace_back(begin, end);
    begin = end;
    step = step * 2 + 1;  // 1, 3, 7, 15, ... rows per range
  }
  return r;
}

void expect_bitwise_eq(const std::vector<value_t>& a, const std::vector<value_t>& b,
                       const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t j = 0; j < a.size(); ++j) {
    ASSERT_EQ(a[j], b[j]) << what << " diverges at nonzero " << j;
  }
}

class SimdEquivalence : public ::testing::TestWithParam<simd::Isa> {};

// The tentpole contract: every backend is bitwise-identical to the
// scalar reference for all four SpMM variants,
// across ASpT shapes and K widths (including sub-vector and off-vector
// widths).
TEST_P(SimdEquivalence, SpmmMatchesScalarBitwise) {
  const simd::KernelConfig cfg = cfg_of(GetParam());
  for (const Subject& sub : subjects()) {
    const auto tiled = aspt::build_aspt(sub.s, sub.acfg);
    for (const index_t k : kWidths) {
      SCOPED_TRACE(sub.name + " k=" + std::to_string(k));
      DenseMatrix x(sub.s.cols(), k);
      sparse::fill_random(x, 29);

      DenseMatrix y_ref(sub.s.rows(), k), y(sub.s.rows(), k);
      kernels::spmm_rowwise(sub.s, x, y_ref, kScalar);
      kernels::spmm_rowwise(sub.s, x, y, cfg);
      EXPECT_DOUBLE_EQ(y.max_abs_diff(y_ref), 0.0) << "spmm_rowwise";

      DenseMatrix ya_ref(sub.s.rows(), k), ya(sub.s.rows(), k);
      kernels::spmm_aspt(tiled, x, ya_ref, nullptr, kScalar);
      kernels::spmm_aspt(tiled, x, ya, nullptr, cfg);
      EXPECT_DOUBLE_EQ(ya.max_abs_diff(ya_ref), 0.0) << "spmm_aspt";

      // Range-partitioned execution reassembles to the full result.
      DenseMatrix yr(sub.s.rows(), k);
      yr.fill(99.0f);
      for (const auto& [b, e] : uneven_ranges(sub.s.rows())) {
        kernels::spmm_aspt_row_range(tiled, x, yr, b, e, cfg);
      }
      EXPECT_DOUBLE_EQ(yr.max_abs_diff(ya_ref), 0.0) << "spmm_aspt_row_range";

      DenseMatrix yrw(sub.s.rows(), k);
      yrw.fill(-7.0f);
      for (const auto& [b, e] : uneven_ranges(sub.s.rows())) {
        kernels::spmm_rowwise(sub.s, x, yrw, b, e, cfg);
      }
      EXPECT_DOUBLE_EQ(yrw.max_abs_diff(y_ref), 0.0) << "spmm_rowwise range";
    }
  }
}

TEST_P(SimdEquivalence, SddmmMatchesScalarBitwise) {
  const simd::KernelConfig cfg = cfg_of(GetParam());
  for (const Subject& sub : subjects()) {
    const auto tiled = aspt::build_aspt(sub.s, sub.acfg);
    for (const index_t k : kWidths) {
      SCOPED_TRACE(sub.name + " k=" + std::to_string(k));
      DenseMatrix x(sub.s.cols(), k), ymat(sub.s.rows(), k);
      sparse::fill_random(x, 31);
      sparse::fill_random(ymat, 37);

      std::vector<value_t> ref, got;
      kernels::sddmm_rowwise(sub.s, x, ymat, ref, kScalar);
      kernels::sddmm_rowwise(sub.s, x, ymat, got, cfg);
      expect_bitwise_eq(ref, got, "sddmm_rowwise");

      std::vector<value_t> aref, agot;
      kernels::sddmm_aspt(tiled, x, ymat, aref, nullptr, kScalar);
      kernels::sddmm_aspt(tiled, x, ymat, agot, nullptr, cfg);
      expect_bitwise_eq(aref, agot, "sddmm_aspt");

      // Range-partitioned ASpT SDDMM fills the same slots.
      std::vector<value_t> rgot(aref.size(), value_t{0});
      for (const auto& [b, e] : uneven_ranges(sub.s.rows())) {
        kernels::sddmm_aspt_row_range(tiled, x, ymat, rgot.data(), rgot.size(), b, e, cfg);
      }
      expect_bitwise_eq(aref, rgot, "sddmm_aspt_row_range");
    }
  }
}

// Padded (aligned-ld) operands must not change a single bit relative to
// packed operands, on every backend.
TEST_P(SimdEquivalence, PaddedOperandsAreBitwiseEqualToPacked) {
  const simd::KernelConfig cfg = cfg_of(GetParam());
  const CsrMatrix s = synth::chung_lu(120, 100, 6.0, 2.2, 5);
  const auto tiled = aspt::build_aspt(
      s, aspt::AsptConfig{.panel_rows = 16, .dense_col_threshold = 2, .max_dense_cols = 64});
  for (const index_t k : kWidths) {
    SCOPED_TRACE("k=" + std::to_string(k));
    DenseMatrix x(s.cols(), k);
    DenseMatrix xp = DenseMatrix::aligned(s.cols(), k);
    sparse::fill_random(x, 41);
    sparse::fill_random(xp, 41);
    ASSERT_DOUBLE_EQ(x.max_abs_diff(xp), 0.0);

    DenseMatrix y(s.rows(), k);
    DenseMatrix yp = DenseMatrix::aligned(s.rows(), k);
    kernels::spmm_aspt(tiled, x, y, nullptr, cfg);
    kernels::spmm_aspt(tiled, xp, yp, nullptr, cfg);
    EXPECT_DOUBLE_EQ(y.max_abs_diff(yp), 0.0);

    std::vector<value_t> d, dp;
    kernels::sddmm_aspt(tiled, x, y, d, nullptr, cfg);
    kernels::sddmm_aspt(tiled, xp, yp, dp, nullptr, cfg);
    expect_bitwise_eq(d, dp, "sddmm padded");
  }
}

/// kernel_scaling's dense_full micro-GEMM shape at test size: row groups one panel
/// tall, each row covering its group's whole disjoint 64-column pool, so
/// every dense-tile row is fully dense and the micro-GEMM pairs them all.
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

// The dense-tile micro-GEMM (picked by select_kernels at K <= 32 on this
// plan) on a fully-dense-tile family, through the raw kernel,
// core::run_spmm and parallel_spmm, with packed and padded operands:
// bitwise equal to the scalar reference at every width, including K=33
// where it is not picked.
TEST_P(SimdEquivalence, MicroGemmDenseFullMatchesScalarBitwise) {
  const CsrMatrix s = dense_full_matrix();
  const core::ExecutionPlan plan = core::build_plan(s);
  ASSERT_NE(plan.spec, nullptr);
  ASSERT_GT(plan.spec->dense_tile_rows, 0u);
  ASSERT_EQ(plan.spec->dense_full_fraction(), 1.0);
  simd::KernelConfig cfg = cfg_of(GetParam());
  cfg.spec = plan.spec;
  ASSERT_NE(simd::select_kernels(cfg, 32).spmm_panel_dense, nullptr);
  runtime::WorkerPool pool(4);
  const simd::KernelConfig saved = simd::active_config();
  simd::set_active_config(cfg);
  for (const index_t k : kWidths) {
    for (const bool padded : {false, true}) {
      SCOPED_TRACE("k=" + std::to_string(k) + (padded ? " padded" : " packed"));
      const auto make = [padded](index_t r, index_t c) {
        return padded ? DenseMatrix::aligned(r, c) : DenseMatrix(r, c);
      };
      DenseMatrix x = make(s.cols(), k);
      sparse::fill_random(x, 43);

      DenseMatrix ref = make(s.rows(), k), y = make(s.rows(), k);
      kernels::spmm_aspt(plan.tiled, x, ref, nullptr, kScalar);
      kernels::spmm_aspt(plan.tiled, x, y, nullptr, cfg);
      EXPECT_DOUBLE_EQ(y.max_abs_diff(ref), 0.0) << "spmm_aspt";

      DenseMatrix plan_ref = make(s.rows(), k), yr = make(s.rows(), k), yp = make(s.rows(), k);
      kernels::spmm_aspt(plan.tiled, x, plan_ref, &plan.sparse_order, kScalar, &plan.row_perm);
      core::run_spmm(plan, x, yr);
      EXPECT_DOUBLE_EQ(yr.max_abs_diff(plan_ref), 0.0) << "core::run_spmm";
      runtime::parallel_spmm(pool, plan, x, yp, nullptr, &cfg);
      EXPECT_DOUBLE_EQ(yp.max_abs_diff(plan_ref), 0.0) << "parallel_spmm";
    }
  }
  simd::set_active_config(saved);
}

INSTANTIATE_TEST_SUITE_P(Backends, SimdEquivalence, ::testing::ValuesIn(runnable_isas()),
                         [](const ::testing::TestParamInfo<simd::Isa>& p) {
                           return std::string(simd::isa_name(p.param));
                         });

// --- one fused arithmetic ---------------------------------------------

/// The reference shapes written out again with std::fma, independently of
/// the library's helpers (docs/API.md, "Bitwise contract"): 16 fused lane
/// partial sums, the pairwise tree (i with i+8, +4, +2, +1), the ordered
/// fused tail.
value_t fused_dot(const value_t* y, const value_t* x, index_t k) {
  value_t l[16] = {};
  index_t kk = 0;
  for (; kk + 16 <= k; kk += 16) {
    for (index_t i = 0; i < 16; ++i) l[i] = std::fma(y[kk + i], x[kk + i], l[i]);
  }
  for (index_t step = 8; step >= 1; step /= 2) {
    for (index_t i = 0; i < step; ++i) l[i] = l[i] + l[i + step];
  }
  value_t acc = l[0];
  for (; kk < k; ++kk) acc = std::fma(y[kk], x[kk], acc);
  return acc;
}

std::uint32_t bits_of(value_t v) {
  std::uint32_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Uniform values with signed zeros, subnormals, the smallest normal and
/// values whose products underflow into the subnormal range mixed in.
void fill_with_specials(DenseMatrix& m, std::uint64_t seed) {
  sparse::fill_random(m, seed);
  const value_t specials[] = {0.0f,
                              -0.0f,
                              std::numeric_limits<value_t>::denorm_min(),
                              -std::numeric_limits<value_t>::denorm_min(),
                              1.0e-39f,
                              -2.5e-39f,
                              std::numeric_limits<value_t>::min(),
                              -3.0e-20f,
                              1.0e-20f};
  constexpr std::size_t kSpecials = sizeof(specials) / sizeof(specials[0]);
  for (index_t i = 0; i < m.rows(); ++i) {
    for (index_t j = 0; j < m.cols(); ++j) {
      const std::uint64_t h = (static_cast<std::uint64_t>(i) * 31 + static_cast<std::uint64_t>(j)) *
                              0x9E3779B97F4A7C15ULL + seed;
      if ((h >> 60) < 6) m(i, j) = specials[(h >> 32) % kSpecials];
    }
  }
}

/// A CSR whose rows hold 0 to 40 nonzeros, with values that include
/// signed zeros and subnormals.
CsrMatrix fused_subject() {
  const index_t cols = 48;
  const index_t lens[] = {0, 1, 2, 5, 17, 40, 3, 0, 9};
  const value_t special_vals[] = {-0.0f, 1.0e-39f, 0.75f, -1.5f, 1.0e-20f};
  std::vector<offset_t> rowptr{0};
  std::vector<index_t> colidx;
  std::vector<value_t> vals;
  index_t n = 0;
  for (const index_t len : lens) {
    // 7 is coprime to 48, so a row's columns are distinct; sorted below.
    for (index_t j = 0; j < len; ++j) {
      colidx.push_back((j * 7 + n) % cols);
      vals.push_back(special_vals[(n + j) % 5]);
    }
    std::sort(colidx.end() - len, colidx.end());
    rowptr.push_back(static_cast<offset_t>(colidx.size()));
    ++n;
  }
  return CsrMatrix(n, cols, std::move(rowptr), std::move(colidx), std::move(vals));
}

const std::vector<index_t> kFusedWidths = {1, 15, 16, 17, 31, 32, 33, 48, 64, 100, 128, 130};

/// The configurations a fused property runs under on `isa`: the generic
/// entries, and the plan-specialized ones (the K-width instantiations at
/// K = 32/64/128, the classed short-row driver elsewhere).
std::vector<simd::KernelConfig> fused_configs(simd::Isa isa, const CsrMatrix& s) {
  simd::KernelConfig generic = cfg_of(isa);
  simd::KernelConfig spec = generic;
  spec.spec = std::make_shared<const simd::SpecializationPlan>(simd::specialize_rows(s));
  return {generic, spec};
}

// Every SDDMM dot, on every runnable ISA (scalar only in a build without
// the SIMD backends), row-wise and through ASpT dense tiles, equals
// vals[j] * fused_dot bit for bit — signed zeros and subnormals included.
TEST(SimdFused, DotMatchesFmaReferenceOnEveryIsa) {
  const CsrMatrix s = fused_subject();
  const auto tiled = aspt::build_aspt(
      s, aspt::AsptConfig{.panel_rows = 4, .dense_col_threshold = 2, .max_dense_cols = 16});
  ASSERT_GT(tiled.stats().nnz_total - tiled.sparse_part().nnz(), 0);
  for (const index_t k : kFusedWidths) {
    DenseMatrix x(s.cols(), k), y(s.rows(), k);
    fill_with_specials(x, 101 + static_cast<std::uint64_t>(k));
    fill_with_specials(y, 211 + static_cast<std::uint64_t>(k));
    std::vector<value_t> want;
    for (index_t i = 0; i < s.rows(); ++i) {
      const auto cols = s.row_cols(i);
      const auto vals = s.row_vals(i);
      for (std::size_t j = 0; j < cols.size(); ++j) {
        want.push_back(vals[j] * fused_dot(y.row(i).data(), x.row(cols[j]).data(), k));
      }
    }
    for (const simd::Isa isa : runnable_isas()) {
      for (const simd::KernelConfig& cfg : fused_configs(isa, s)) {
        SCOPED_TRACE(std::string(simd::isa_name(isa)) + " k=" + std::to_string(k) +
                     (cfg.spec ? " specialized" : " generic"));
        std::vector<value_t> rowwise(want.size(), std::nanf("")), tiles(want.size(), std::nanf(""));
        kernels::sddmm_rowwise(s, x, y, rowwise, cfg);
        kernels::sddmm_aspt(tiled, x, y, tiles.data(), tiles.size(), nullptr, cfg);
        for (std::size_t j = 0; j < want.size(); ++j) {
          ASSERT_EQ(bits_of(rowwise[j]), bits_of(want[j])) << "sddmm_rowwise nonzero " << j;
          ASSERT_EQ(bits_of(tiles[j]), bits_of(want[j])) << "sddmm_aspt nonzero " << j;
        }
      }
    }
  }
}

// Every SpMM element, on every runnable ISA, is the ordered fused chain
// fma(v_j, x_j[kk], ...fma(v_0, x_0[kk], +0)) bit for bit.
TEST(SimdFused, AxpyMatchesFmaReferenceOnEveryIsa) {
  const CsrMatrix s = fused_subject();
  for (const index_t k : kFusedWidths) {
    DenseMatrix x(s.cols(), k);
    fill_with_specials(x, 307 + static_cast<std::uint64_t>(k));
    DenseMatrix want(s.rows(), k);
    for (index_t i = 0; i < s.rows(); ++i) {
      const auto cols = s.row_cols(i);
      const auto vals = s.row_vals(i);
      for (index_t kk = 0; kk < k; ++kk) {
        value_t acc = 0.0f;
        for (std::size_t j = 0; j < cols.size(); ++j) acc = std::fma(vals[j], x(cols[j], kk), acc);
        want(i, kk) = acc;
      }
    }
    for (const simd::Isa isa : runnable_isas()) {
      for (const simd::KernelConfig& cfg : fused_configs(isa, s)) {
        SCOPED_TRACE(std::string(simd::isa_name(isa)) + " k=" + std::to_string(k) +
                     (cfg.spec ? " specialized" : " generic"));
        DenseMatrix got(s.rows(), k);
        got.fill(std::nanf(""));
        kernels::spmm_rowwise(s, x, got, cfg);
        for (index_t i = 0; i < s.rows(); ++i) {
          for (index_t kk = 0; kk < k; ++kk) {
            ASSERT_EQ(bits_of(got(i, kk)), bits_of(want(i, kk))) << "(" << i << "," << kk << ")";
          }
        }
      }
    }
  }
}

// The guard: a case where the fused step and a separate multiply and add
// round differently, so the bitwise properties above cannot pass by
// accident on unfused kernels. a*a = 1 + 2^-11 + 2^-24 is a tie that a
// separate multiply rounds to 1 + 2^-11; fma(a, a, -1) keeps the 2^-24.
TEST(SimdFused, KernelsFuseWhereMulAddRoundsTwice) {
  const value_t a = 1.0f + std::ldexp(1.0f, -12);
  const value_t fused = std::ldexp(1.0f, -11) + std::ldexp(1.0f, -24);
  const value_t product = a * a;  // its own statement: never contracted
  ASSERT_EQ(std::fma(a, a, -1.0f), fused);
  ASSERT_NE(product + -1.0f, fused);

  // SpMM: y = fma(a, a, fma(1, -1, +0)) in every element.
  const CsrMatrix s = test::csr({{1.0f, a}});
  // SDDMM: Y row (1 at kk=0, a at kk=m) . X row (-1 at kk=0, a at kk=m):
  // lane 0 of the 16-lane sums at K=32 (m=16), the ordered tail at K=17.
  const CsrMatrix one = test::csr({{1.0f}});
  for (const index_t k : {index_t{1}, index_t{17}, index_t{32}, index_t{130}}) {
    DenseMatrix x(2, k), xd(1, k), yd(1, k);
    for (index_t kk = 0; kk < k; ++kk) {
      x(0, kk) = -1.0f;
      x(1, kk) = a;
    }
    const index_t m = k == 32 ? 16 : k - 1;
    yd(0, 0) = 1.0f;
    xd(0, 0) = -1.0f;
    yd(0, m) = a;
    xd(0, m) = a;
    for (const simd::Isa isa : runnable_isas()) {
      SCOPED_TRACE(std::string(simd::isa_name(isa)) + " k=" + std::to_string(k));
      DenseMatrix y(1, k);
      kernels::spmm_rowwise(s, x, y, cfg_of(isa));
      for (index_t kk = 0; kk < k; ++kk) ASSERT_EQ(y(0, kk), fused) << "spmm kk=" << kk;
      if (k == 1) continue;  // the dot needs two terms in one chain
      std::vector<value_t> out;
      kernels::sddmm_rowwise(one, xd, yd, out, cfg_of(isa));
      ASSERT_EQ(out.size(), 1u);
      EXPECT_EQ(out[0], fused) << "sddmm";
    }
  }
}

// --- dispatch --------------------------------------------------------

TEST(SimdDispatch, ScalarIsAlwaysRunnable) {
  EXPECT_TRUE(simd::isa_compiled(simd::Isa::scalar));
  EXPECT_TRUE(simd::isa_supported(simd::Isa::scalar));
  EXPECT_EQ(simd::resolve_isa(simd::Isa::scalar), simd::Isa::scalar);
}

TEST(SimdDispatch, ResolutionAlwaysLandsOnSupportedIsa) {
  for (int i = 0; i < static_cast<int>(simd::kIsaCount); ++i) {
    const auto requested = static_cast<simd::Isa>(i);
    const simd::Isa got = simd::resolve_isa(requested);
    EXPECT_TRUE(simd::isa_supported(got)) << simd::isa_name(requested);
    if (simd::isa_supported(requested)) {
      EXPECT_EQ(got, requested);
    }
  }
  EXPECT_TRUE(simd::isa_supported(simd::resolve_isa(std::nullopt)));
}

TEST(SimdDispatch, TableReportsResolvedIsa) {
  for (const simd::Isa isa : runnable_isas()) {
    const simd::KernelTable& t = simd::table(cfg_of(isa));
    EXPECT_EQ(t.isa, isa);
    EXPECT_NE(t.spmm_rows, nullptr);
    EXPECT_NE(t.spmm_panel, nullptr);
    EXPECT_NE(t.sddmm_rows, nullptr);
    EXPECT_NE(t.sddmm_panel, nullptr);
  }
}

TEST(SimdDispatch, EnvOverrideForcesIsa) {
  ::setenv("RRSPMM_KERNEL_ISA", "scalar", 1);
  simd::reload_env();
  const simd::KernelConfig cfg = simd::active_config();
  ASSERT_TRUE(cfg.isa.has_value());
  EXPECT_EQ(*cfg.isa, simd::Isa::scalar);
  EXPECT_EQ(simd::table(cfg).isa, simd::Isa::scalar);

  // An unparseable name falls back to auto instead of failing.
  ::setenv("RRSPMM_KERNEL_ISA", "quantum", 1);
  simd::reload_env();
  EXPECT_FALSE(simd::active_config().isa.has_value());

  ::unsetenv("RRSPMM_KERNEL_ISA");
  simd::reload_env();
  EXPECT_FALSE(simd::active_config().isa.has_value());
}

TEST(SimdDispatch, SetActiveConfigOverridesEnv) {
  simd::set_active_config(cfg_of(simd::Isa::scalar));
  ASSERT_TRUE(simd::active_config().isa.has_value());
  EXPECT_EQ(*simd::active_config().isa, simd::Isa::scalar);
  simd::set_active_config(simd::KernelConfig{});  // back to auto
  EXPECT_FALSE(simd::active_config().isa.has_value());
}

TEST(SimdCounters, InvocationsTrackTheResolvedIsa) {
  const CsrMatrix s = test::csr({{1, 2}, {0, 3}});
  DenseMatrix x(2, 4), y(2, 4);
  sparse::fill_random(x, 61);

  simd::reset_invocation_counts();
  kernels::spmm_rowwise(s, x, y, cfg_of(simd::Isa::scalar));
  auto counts = simd::invocation_counts();
  EXPECT_GE(counts[static_cast<std::size_t>(simd::Isa::scalar)], 1u);

  const simd::Isa best = simd::resolve_isa(std::nullopt);
  simd::reset_invocation_counts();
  kernels::spmm_rowwise(s, x, y, simd::KernelConfig{});
  counts = simd::invocation_counts();
  EXPECT_GE(counts[static_cast<std::size_t>(best)], 1u);

  simd::reset_invocation_counts();
  for (const auto c : simd::invocation_counts()) EXPECT_EQ(c, 0u);
}

// SDDMM goes through the same dispatch layer; its calls must land on the
// same per-ISA counters as SpMM (both the rowwise and the ASpT entry).
TEST(SimdCounters, SddmmInvocationsTrackTheResolvedIsa) {
  const CsrMatrix s = test::csr({{1, 0, 2}, {0, 3, 0}, {4, 5, 0}});
  const auto tiled = aspt::build_aspt(
      s, aspt::AsptConfig{.panel_rows = 2, .dense_col_threshold = 2, .max_dense_cols = 4});
  DenseMatrix x(3, 8), ymat(3, 8);
  sparse::fill_random(x, 67);
  sparse::fill_random(ymat, 71);
  std::vector<value_t> out;

  simd::reset_invocation_counts();
  kernels::sddmm_rowwise(s, x, ymat, out, cfg_of(simd::Isa::scalar));
  auto counts = simd::invocation_counts();
  EXPECT_EQ(counts[static_cast<std::size_t>(simd::Isa::scalar)], 1u);

  const simd::Isa best = simd::resolve_isa(std::nullopt);
  simd::reset_invocation_counts();
  kernels::sddmm_rowwise(s, x, ymat, out, simd::KernelConfig{});
  kernels::sddmm_aspt(tiled, x, ymat, out, nullptr, simd::KernelConfig{});
  counts = simd::invocation_counts();
  EXPECT_EQ(counts[static_cast<std::size_t>(best)], 2u);
}

/// A record that makes every K profitable for row-wise substitution.
std::shared_ptr<const simd::SpecializationPlan> short_heavy_spec() {
  simd::SpecializationPlan p;
  p.rows_by_class[static_cast<std::size_t>(simd::RowClass::short_row)] = 8;
  p.variant[static_cast<std::size_t>(simd::RowClass::short_row)] =
      static_cast<std::uint8_t>(simd::SpecVariant::unrolled_short);
  return std::make_shared<const simd::SpecializationPlan>(p);
}

// Specialized-call counters: a kernel call whose selection substituted a
// specialized entry counts once for the *resolved* ISA, for SpMM and
// SDDMM alike; generic calls never touch the specialized counters.
TEST(SimdCounters, SpecializedCallsCountPerResolvedIsa) {
  const CsrMatrix s = test::csr({{1, 2, 0}, {0, 0, 3}, {4, 0, 0}});
  DenseMatrix x(3, 8), y(3, 8), ymat(3, 8);
  sparse::fill_random(x, 73);
  sparse::fill_random(ymat, 79);
  std::vector<value_t> out;

  for (const simd::Isa isa : runnable_isas()) {
    SCOPED_TRACE(simd::isa_name(isa));
    simd::KernelConfig cfg = cfg_of(isa);
    cfg.spec = short_heavy_spec();

    simd::reset_invocation_counts();
    kernels::spmm_rowwise(s, x, y, cfg);
    kernels::sddmm_rowwise(s, x, ymat, out, cfg);
    const auto spec_counts = simd::specialized_counts();
    const auto counts = simd::invocation_counts();
    EXPECT_EQ(spec_counts[static_cast<std::size_t>(isa)], 2u);
    EXPECT_EQ(counts[static_cast<std::size_t>(isa)], 2u);

    // A generic call on the same ISA bumps invocations only.
    kernels::spmm_rowwise(s, x, y, cfg_of(isa));
    EXPECT_EQ(simd::specialized_counts()[static_cast<std::size_t>(isa)], 2u);
    EXPECT_EQ(simd::invocation_counts()[static_cast<std::size_t>(isa)], 3u);
  }

  simd::reset_invocation_counts();
  for (const auto c : simd::specialized_counts()) EXPECT_EQ(c, 0u);
}

// RRSPMM_KERNEL_ISA rides the same fallback ladder for the specialized
// entries: a forced (possibly unsupported) ISA resolves down the ladder,
// and select_kernels substitutes the *resolved* backend's K-width entry.
TEST(SimdDispatch, EnvForcedIsaLadderAppliesToSpecializedEntries) {
  for (int i = 0; i < static_cast<int>(simd::kIsaCount); ++i) {
    const auto requested = static_cast<simd::Isa>(i);
    ::setenv("RRSPMM_KERNEL_ISA", std::string(simd::isa_name(requested)).c_str(), 1);
    simd::reload_env();
    simd::KernelConfig cfg = simd::active_config();
    cfg.spec = short_heavy_spec();

    const simd::Isa resolved = simd::resolve_isa(requested);
    const simd::KernelTable& t = simd::table(cfg);
    ASSERT_EQ(t.isa, resolved) << simd::isa_name(requested);
    const simd::KernelSelection sel = simd::select_kernels(cfg, simd::kSpecKWidths[0]);
    EXPECT_EQ(sel.isa, resolved) << simd::isa_name(requested);
    EXPECT_TRUE(sel.specialized);
    EXPECT_EQ(sel.spmm_rows, t.spmm_rows_kw[0]) << simd::isa_name(requested);
    EXPECT_EQ(sel.sddmm_rows, t.sddmm_rows_kw[0]) << simd::isa_name(requested);
  }
  ::unsetenv("RRSPMM_KERNEL_ISA");
  simd::reload_env();
}

}  // namespace
}  // namespace rrspmm
