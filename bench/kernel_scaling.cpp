// SIMD kernel scaling bench: wall-clock of the SpMM/SDDMM kernels under
// every runnable ISA backend (forced through simd::KernelConfig) against
// the scalar reference, per K width. Prints a fixed-width table plus
// PASS/FAIL checks and writes BENCH_kernels.json.
//
// Checks:
//   * bitwise identity — every backend must reproduce the scalar result
//     exactly; enforced unconditionally on every host.
//   * speedup — the vectorized dense-tile phase (the staged-panel ASpT
//     kernel on an all-dense tiling) must beat scalar by >= 1.5x geomean
//     at k=32 when the host runs AVX2; hosts without AVX2 skip the gate.
//
// A second section gates the AOT plan-specialized kernels against the
// generic SIMD path (same auto-resolved ISA, spec record on vs off)
// across row-class mixes — short-row-dominated, power-law, uniform-long,
// dense-tiles:
//   * bitwise identity — specialized output must equal the generic
//     output exactly; enforced wherever specialization is compiled in.
//   * speedup — >= 1.2x on the short-row-dominated family at k=32, and
//     never below 0.95x on any family/K; AVX2 hosts only.
//
// A third section backs select_kernels' dense-tile micro-GEMM rule
// (micro-GEMM at k <= 32 on plans whose dense tile rows are mostly fully
// dense). It times the two table entries of the auto-resolved backend,
// spmm_panel_dense against spmm_panel, directly over the ASpT dense-tile
// phase of each family's default plan, so the comparison does not depend
// on the rule that picks between them:
//   * bitwise identity — the micro-GEMM must equal the generic panel
//     body exactly, on every row.
//   * speedup — >= 1.2x on the dense_full family (every dense-tile row
//     fully dense) at k=32, where the staged tile stays L1-resident
//     (d*k*4B = 8 KiB); scalar-only hosts skip the gate. INFO rows:
//     dense_full at k = 8, 16 and 64 (where the tile spills L1 and the
//     micro-GEMM loses), and short_rows and tiny at k=32, which have no
//     fully dense tile rows.
//
//   RRSPMM_SCALE — linear multiplier on matrix rows (default 1)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "aspt/aspt.hpp"
#include "bench_common.hpp"
#include "core/pipeline.hpp"
#include "harness/render.hpp"
#include "kernels/detail/staging.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/simd/dispatch.hpp"
#include "kernels/simd/specialize.hpp"
#include "kernels/spmm.hpp"
#include "synth/generators.hpp"

namespace rrspmm {
namespace {

namespace simd = kernels::simd;
using sparse::CsrMatrix;
using sparse::DenseMatrix;

constexpr int kReps = 3;  ///< best-of, to shave scheduler noise
constexpr index_t kWidths[] = {32, 128};
constexpr double kAvx2DenseTileGate = 1.5;  ///< geomean speedup at k=32

/// Specialization section: K widths to compare (32, 64 and 128 hit the
/// AOT K-width instantiations, 48 falls through to the runtime-K classed
/// short-row driver) and the AVX2 gates.
constexpr index_t kSpecWidths[] = {32, 48, 64, 128};
constexpr int kSpecReps = 9;  ///< interleaved pairs; speedup = median ratio
constexpr double kSpecShortRowGate = 1.2;  ///< short_rows at k=32
constexpr double kSpecFloor = 0.95;        ///< any family, any K

/// Micro-GEMM section: the gated width, the gate, and the dense_full
/// widths its INFO rows cover.
constexpr index_t kMicroK = 32;
constexpr double kMicroGate = 1.2;   ///< micro-GEMM vs generic panel body
constexpr int kMicroReps = 9;        ///< interleaved pairs; speedup = median ratio
constexpr index_t kMicroWidths[] = {8, 16, 32, 64};

double env_scale() {
  if (const char* s = std::getenv("RRSPMM_SCALE")) {
    const double v = std::atof(s);
    if (v > 0.0) return v;
  }
  return 1.0;
}

struct Subject {
  std::string name;
  std::string op;  ///< "spmm_aspt" | "spmm_rowwise" | "sddmm_aspt"
  CsrMatrix s;
  aspt::AsptMatrix tiled;
  double dense_fraction = 0.0;
};

std::vector<Subject> build_subjects() {
  const double scale = env_scale();
  std::vector<Subject> out;

  // Every nonzero in a dense tile: this is the staged-panel phase the
  // SIMD layer targets, isolated (the sparse remainder is empty).
  {
    synth::ClusteredParams p;
    p.rows = static_cast<index_t>(4096 * scale);
    p.cols = 4096;
    p.num_groups = 64;
    p.group_cols = 64;
    p.row_nnz = 32;
    p.noise_nnz = 0;
    p.scatter = false;
    Subject sub;
    sub.name = "dense_tiles";
    sub.op = "spmm_aspt";
    sub.s = synth::clustered_rows(p, 101);
    sub.tiled = aspt::build_aspt(sub.s, aspt::AsptConfig{.panel_rows = 64,
                                                         .dense_col_threshold = 2,
                                                         .max_dense_cols = 128});
    out.push_back(std::move(sub));
  }

  // Skewed mix of dense tiles and sparse remainder (the realistic case).
  {
    Subject sub;
    sub.name = "mixed";
    sub.op = "spmm_aspt";
    sub.s = synth::chung_lu(static_cast<index_t>(4096 * scale), 4096, 16.0, 2.2, 103);
    sub.tiled = aspt::build_aspt(sub.s, aspt::AsptConfig{});
    out.push_back(std::move(sub));
  }

  // Pure CSR row-wise kernel, no tiling.
  {
    Subject sub;
    sub.name = "uniform";
    sub.op = "spmm_rowwise";
    sub.s = synth::erdos_renyi(static_cast<index_t>(4096 * scale), 4096, 131072, 107);
    sub.tiled = aspt::build_aspt(sub.s, aspt::AsptConfig{});
    out.push_back(std::move(sub));
  }

  // SDDMM over the all-dense tiling (16-lane fused dot per nonzero).
  {
    Subject sub;
    sub.name = "dense_tiles";
    sub.op = "sddmm_aspt";
    sub.s = out[0].s;
    sub.tiled = aspt::build_aspt(sub.s, aspt::AsptConfig{.panel_rows = 64,
                                                         .dense_col_threshold = 2,
                                                         .max_dense_cols = 128});
    out.push_back(std::move(sub));
  }

  for (Subject& sub : out) {
    const auto nnz_total = sub.tiled.stats().nnz_total;
    const auto nnz_sparse = sub.tiled.sparse_part().nnz();
    sub.dense_fraction =
        nnz_total > 0 ? 1.0 - static_cast<double>(nnz_sparse) / static_cast<double>(nnz_total)
                      : 0.0;
  }
  return out;
}

/// Specialization-section subject: one row-class mix, compared under the
/// auto-resolved ISA with the specialization record on vs off.
struct SpecSubject {
  std::string name;
  std::string op;  ///< "spmm_rowwise" | "spmm_aspt" | "sddmm_aspt"
  CsrMatrix s;
  aspt::AsptMatrix tiled;  ///< used by the aspt ops only
  std::shared_ptr<const simd::SpecializationPlan> spec;
};

/// Every row 1..4 nonzeros over a narrow column range (X stays cache
/// resident, so per-row overhead — the thing the short-row unrolled
/// driver removes — dominates the measurement).
CsrMatrix short_row_matrix(index_t rows, index_t cols, std::uint64_t seed) {
  std::vector<offset_t> rowptr(static_cast<std::size_t>(rows) + 1, 0);
  std::vector<index_t> colidx;
  std::vector<value_t> values;
  std::uint64_t state = seed;
  const auto next = [&] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint64_t>(state >> 33);
  };
  for (index_t i = 0; i < rows; ++i) {
    const index_t nnz = 1 + static_cast<index_t>(i & 3);
    const index_t base =
        static_cast<index_t>(next() % static_cast<std::uint64_t>(cols - 3 * nnz));
    for (index_t j = 0; j < nnz; ++j) {
      colidx.push_back(base + 3 * j);  // strictly increasing within the row
      values.push_back(static_cast<value_t>(next() % 1000) / value_t{250} - value_t{2});
    }
    rowptr[static_cast<std::size_t>(i) + 1] =
        rowptr[static_cast<std::size_t>(i)] + static_cast<offset_t>(nnz);
  }
  return CsrMatrix(rows, cols, std::move(rowptr), std::move(colidx), std::move(values));
}

std::vector<SpecSubject> build_spec_subjects() {
  const double scale = env_scale();
  std::vector<SpecSubject> out;
  const auto rows_spec = [](const CsrMatrix& s) {
    return std::make_shared<const simd::SpecializationPlan>(simd::specialize_rows(s));
  };

  {
    SpecSubject sub;
    sub.name = "short_rows";
    sub.op = "spmm_rowwise";
    // Row count keeps Y cache-resident at every kSpecWidth (2 MB at
    // K=128): the gate measures per-row kernel overhead, not DRAM store
    // bandwidth (which is identical for both sides).
    sub.s = short_row_matrix(static_cast<index_t>(4096 * scale), 512, 311);
    sub.spec = rows_spec(sub.s);
    out.push_back(std::move(sub));
  }
  {
    SpecSubject sub;
    sub.name = "power_law";
    sub.op = "spmm_rowwise";
    sub.s = synth::chung_lu(static_cast<index_t>(16384 * scale), 4096, 8.0, 2.5, 313);
    sub.spec = rows_spec(sub.s);
    out.push_back(std::move(sub));
  }
  {
    SpecSubject sub;
    sub.name = "uniform_long";
    sub.op = "spmm_rowwise";
    sub.s = synth::erdos_renyi(static_cast<index_t>(4096 * scale), 4096, 262144, 317);
    sub.spec = rows_spec(sub.s);
    out.push_back(std::move(sub));
  }
  {
    SpecSubject sub;
    sub.name = "dense_tiles";
    sub.op = "spmm_aspt";
    synth::ClusteredParams p;
    p.rows = static_cast<index_t>(4096 * scale);
    p.cols = 4096;
    p.num_groups = 64;
    p.group_cols = 64;
    p.row_nnz = 32;
    p.noise_nnz = 0;
    p.scatter = false;
    sub.s = synth::clustered_rows(p, 331);
    sub.tiled = aspt::build_aspt(sub.s, aspt::AsptConfig{.panel_rows = 64,
                                                         .dense_col_threshold = 2,
                                                         .max_dense_cols = 128});
    sub.spec = std::make_shared<const simd::SpecializationPlan>(
        simd::specialize_plan(sub.tiled));
    SpecSubject sddmm = sub;
    sddmm.op = "sddmm_aspt";
    out.push_back(std::move(sub));
    out.push_back(std::move(sddmm));
  }
  return out;
}

/// Micro-GEMM section family: a matrix and its default RR plan.
struct MicroFamily {
  std::string name;
  CsrMatrix s;
  core::ExecutionPlan plan;
};

/// dense_full first (the gated family), then short_rows and tiny.
std::vector<MicroFamily> build_micro_families() {
  const double scale = env_scale();
  std::vector<MicroFamily> out;
  {
    // Row groups exactly one panel tall whose rows each cover the whole
    // 64-column pool: every dense-tile row is fully populated, so the
    // micro-GEMM pairs all of them (dense_full_fraction == 1).
    synth::ClusteredParams p;
    p.rows = static_cast<index_t>(4096 * scale);
    p.cols = 4096;
    p.num_groups = 64;
    p.group_cols = 64;
    p.row_nnz = 64;
    p.noise_nnz = 0;
    p.scatter = false;
    p.disjoint_pools = true;
    out.push_back({"dense_full", synth::clustered_rows(p, 331), {}});
  }
  out.push_back({"short_rows", short_row_matrix(static_cast<index_t>(4096 * scale), 512, 311), {}});
  out.push_back({"tiny", synth::erdos_renyi(128, 128, 4096, 337), {}});
  for (MicroFamily& f : out) f.plan = core::build_plan(f.s, {});
  return out;
}

/// The ASpT dense-tile phase of `a` alone, serial, through one table
/// entry of the auto-resolved backend: the micro-GEMM when `micro`, else
/// the generic panel body. Accumulates into y.
void dense_phase(const aspt::AsptMatrix& a, const DenseMatrix& x, DenseMatrix& y, bool micro) {
  const simd::KernelTable& t = simd::table(simd::KernelConfig{});
  const index_t k = x.cols();
  const index_t ld = sparse::aligned_ld(k);
  sparse::AlignedVector<value_t> staged(kernels::detail::max_panel_dense_cols(a, 0, a.rows()) *
                                        static_cast<std::size_t>(ld));
  for (const aspt::Panel& p : a.panels()) {
    if (p.dense_cols.empty()) continue;
    kernels::detail::stage_panel(p, x, k, staged.data(), ld);
    if (micro) {
      t.spmm_panel_dense(p.dense_rowptr.data(), p.dense_slot.data(), p.dense_val.data(),
                         p.row_begin, staged.data(), ld, y.data(), y.ld(), k, nullptr,
                         p.row_begin, p.row_end, static_cast<index_t>(p.dense_cols.size()));
    } else {
      t.spmm_panel(p.dense_rowptr.data(), p.dense_slot.data(), p.dense_val.data(), p.row_begin,
                   staged.data(), ld, y.data(), y.ld(), k, nullptr, p.row_begin, p.row_end);
    }
  }
}

struct MicroPoint {
  std::string family;
  index_t k = 0;
  bool selected = false;  ///< select_kernels picks the micro-GEMM at k
  double generic_ms = 0.0, micro_ms = 0.0;
  double speedup = 1.0;   ///< median generic / micro ratio
  bool identical = true;  ///< bitwise, micro-GEMM vs generic panel body
};

struct SpecPoint {
  std::string subject;
  std::string op;
  index_t k = 0;
  bool specialized = false;  ///< selection actually substituted entries
  double generic_ms = 0.0;
  double spec_ms = 0.0;
  double speedup = 1.0;   ///< generic / specialized
  bool identical = true;  ///< bitwise, specialized vs generic
};

struct Point {
  std::string subject;
  std::string op;
  index_t k = 0;
  std::string isa;
  double wall_ms = 0.0;
  double speedup = 1.0;  ///< vs scalar, same subject/op/k
  bool identical = true;  ///< bitwise vs scalar
};

/// Best-of-kReps wall time of `iters` back-to-back kernel runs.
template <class Fn>
double time_ms(int iters, Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    for (int it = 0; it < iters; ++it) fn();
    const double ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(Clock::now() - t0)
            .count() /
        iters;
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

int calibrate_iters(const CsrMatrix& s, index_t k) {
  // Aim for ~100M scalar flops per timed run so even the fastest backend
  // stays measurable.
  const double flops = 2.0 * static_cast<double>(s.nnz()) * k;
  return std::clamp(static_cast<int>(1e8 / std::max(flops, 1.0)), 1, 64);
}

std::string to_json(const std::vector<Point>& points, const std::vector<SpecPoint>& spec,
                    const std::vector<MicroPoint>& micro) {
  bench::JsonWriter js;
  js.obj_begin()
      .field("bench", "kernel_scaling")
      .field("auto_isa", simd::isa_name(simd::resolve_isa(std::nullopt)))
      .key("results")
      .arr_begin();
  for (const Point& p : points) {
    js.obj_begin()
        .field("subject", p.subject)
        .field("op", p.op)
        .field("k", p.k)
        .field("isa", p.isa)
        .field("wall_ms", p.wall_ms)
        .field("speedup", p.speedup)
        .field("identical", p.identical)
        .obj_end();
  }
  js.arr_end().key("specialization").arr_begin();
  for (const SpecPoint& p : spec) {
    js.obj_begin()
        .field("subject", p.subject)
        .field("op", p.op)
        .field("k", p.k)
        .field("specialized", p.specialized)
        .field("generic_ms", p.generic_ms)
        .field("spec_ms", p.spec_ms)
        .field("speedup", p.speedup)
        .field("identical", p.identical)
        .obj_end();
  }
  js.arr_end().key("micro_gemm").arr_begin();
  for (const MicroPoint& p : micro) {
    js.obj_begin()
        .field("family", p.family)
        .field("k", p.k)
        .field("selected", p.selected)
        .field("generic_ms", p.generic_ms)
        .field("micro_ms", p.micro_ms)
        .field("speedup", p.speedup)
        .field("identical", p.identical)
        .obj_end();
  }
  js.arr_end().obj_end();
  return js.str();
}

}  // namespace
}  // namespace rrspmm

int main() {
  using namespace rrspmm;

  std::vector<simd::Isa> isas;
  for (int i = 0; i < static_cast<int>(simd::kIsaCount); ++i) {
    const auto isa = static_cast<simd::Isa>(i);
    if (simd::isa_supported(isa)) isas.push_back(isa);
  }
  const simd::Isa best_isa = simd::resolve_isa(std::nullopt);

  const auto subjects = build_subjects();
  std::printf("== kernel scaling: %zu subjects, backends:", subjects.size());
  for (const simd::Isa isa : isas) std::printf(" %s", std::string(simd::isa_name(isa)).c_str());
  std::printf(" (auto -> %s) ==\n", std::string(simd::isa_name(best_isa)).c_str());

  int failures = 0;
  std::vector<Point> points;

  for (const Subject& sub : subjects) {
    for (const index_t k : kWidths) {
      DenseMatrix x(sub.s.cols(), k), ymat(sub.s.rows(), k);
      sparse::fill_random(x, 211);
      sparse::fill_random(ymat, 223);
      const int iters = calibrate_iters(sub.s, k);

      // One measurement closure per ISA.
      DenseMatrix y_ref, y_got;
      std::vector<value_t> d_ref, d_got;
      const auto run = [&](const simd::KernelConfig& cfg, DenseMatrix& y,
                           std::vector<value_t>& d) {
        if (sub.op == "spmm_aspt") {
          kernels::spmm_aspt(sub.tiled, x, y, nullptr, cfg);
        } else if (sub.op == "spmm_rowwise") {
          kernels::spmm_rowwise(sub.s, x, y, cfg);
        } else {
          kernels::sddmm_aspt(sub.tiled, x, ymat, d, nullptr, cfg);
        }
      };

      simd::KernelConfig scalar_cfg;
      scalar_cfg.isa = simd::Isa::scalar;
      y_ref = DenseMatrix(sub.s.rows(), k);
      run(scalar_cfg, y_ref, d_ref);  // warmup + reference result
      const double scalar_ms = time_ms(iters, [&] { run(scalar_cfg, y_ref, d_ref); });
      points.push_back({sub.name, sub.op, k, "scalar", scalar_ms, 1.0, true});

      const auto measure = [&](simd::Isa isa) {
        simd::KernelConfig cfg;
        cfg.isa = isa;
        y_got = DenseMatrix(sub.s.rows(), k);
        d_got.clear();
        run(cfg, y_got, d_got);  // warmup + correctness result
        Point p;
        p.subject = sub.name;
        p.op = sub.op;
        p.k = k;
        p.isa = simd::isa_name(isa);
        p.wall_ms = time_ms(iters, [&] { run(cfg, y_got, d_got); });
        p.speedup = p.wall_ms > 0.0 ? scalar_ms / p.wall_ms : 1.0;
        p.identical =
            sub.op == "sddmm_aspt" ? d_got == d_ref : y_got.max_abs_diff(y_ref) == 0.0;
        if (!p.identical) {
          ++failures;
          std::printf("FAIL: %s/%s k=%d isa=%s not bitwise equal to scalar\n",
                      sub.name.c_str(), sub.op.c_str(), k, p.isa.c_str());
        }
        points.push_back(std::move(p));
      };

      for (const simd::Isa isa : isas) {
        if (isa != simd::Isa::scalar) measure(isa);
      }
    }
  }

  std::vector<std::vector<std::string>> rows;
  for (const Point& p : points) {
    rows.push_back({p.subject, p.op, std::to_string(p.k), p.isa, harness::fmt(p.wall_ms, 3),
                    harness::fmt(p.speedup, 2), p.identical ? "yes" : "NO"});
  }
  std::printf("%s\n",
              harness::render_table(
                  {"subject", "op", "k", "isa", "wall_ms", "speedup", "identical"}, rows)
                  .c_str());

  // The acceptance gate: vectorized dense-tile SpMM at k=32 under AVX2.
  if (simd::isa_supported(simd::Isa::avx2)) {
    double log_sum = 0.0;
    int n = 0;
    for (const Point& p : points) {
      if (p.subject == "dense_tiles" && p.op == "spmm_aspt" && p.k == 32 && p.isa == "avx2") {
        log_sum += std::log(p.speedup);
        ++n;
      }
    }
    const double geomean = n > 0 ? std::exp(log_sum / n) : 0.0;
    const bool ok = geomean >= kAvx2DenseTileGate;
    if (!ok) ++failures;
    std::printf("%s: avx2 dense-tile SpMM geomean speedup at k=32: %.2fx (need >= %.2fx)\n",
                ok ? "PASS" : "FAIL", geomean, kAvx2DenseTileGate);
  } else {
    std::printf("SKIP: avx2 dense-tile gate (host does not run AVX2)\n");
  }

  // == AOT plan-specialized kernels vs the generic SIMD path ==
  std::vector<SpecPoint> spec_points;
  for (const SpecSubject& sub : build_spec_subjects()) {
    for (const index_t k : kSpecWidths) {
      DenseMatrix x(sub.s.cols(), k), ymat(sub.s.rows(), k);
      sparse::fill_random(x, 347);
      sparse::fill_random(ymat, 349);
      // 4x the main section's flop budget per timing window: the floor
      // gate compares two near-identical times, so each sample must be
      // long enough that scheduler noise stays inside the 5% margin.
      const double flops = 2.0 * static_cast<double>(sub.s.nnz()) * k;
      const int iters = std::clamp(static_cast<int>(4e8 / std::max(flops, 1.0)), 4, 256);

      const auto run = [&](const simd::KernelConfig& cfg, DenseMatrix& y,
                           std::vector<value_t>& d) {
        if (sub.op == "spmm_rowwise") {
          kernels::spmm_rowwise(sub.s, x, y, cfg);
        } else if (sub.op == "spmm_aspt") {
          kernels::spmm_aspt(sub.tiled, x, y, nullptr, cfg);
        } else {
          kernels::sddmm_aspt(sub.tiled, x, ymat, d, nullptr, cfg);
        }
      };

      simd::KernelConfig gcfg;  // generic: auto ISA, no spec record
      gcfg.isa = best_isa;
      simd::KernelConfig scfg = gcfg;
      scfg.spec = sub.spec;

      DenseMatrix y_gen(sub.s.rows(), k), y_spec(sub.s.rows(), k);
      std::vector<value_t> d_gen, d_spec;
      run(gcfg, y_gen, d_gen);  // warmup + reference
      run(scfg, y_spec, d_spec);

      SpecPoint p;
      p.subject = sub.name;
      p.op = sub.op;
      p.k = k;
      p.specialized = simd::select_kernels(scfg, k).specialized;
      p.identical = sub.op == "sddmm_aspt" ? d_spec == d_gen
                                           : y_spec.max_abs_diff(y_gen) == 0.0;
      if (!p.identical) {
        ++failures;
        std::printf("FAIL: %s/%s k=%d specialized not bitwise equal to generic\n",
                    sub.name.c_str(), sub.op.c_str(), k);
      }
      // Interleaved pairs: a generic timing immediately followed by a
      // specialized one, so host-load drift hits both sides of each
      // ratio equally; the median over the pairs discards spike-hit
      // ones. Reported wall times are the per-side minima.
      using Clock = std::chrono::steady_clock;
      const auto time_once = [&](const simd::KernelConfig& cfg, DenseMatrix& y,
                                 std::vector<value_t>& d) {
        const auto t0 = Clock::now();
        for (int it = 0; it < iters; ++it) run(cfg, y, d);
        return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
                   Clock::now() - t0)
                   .count() /
               iters;
      };
      std::vector<double> ratios;
      for (int rep = 0; rep < kSpecReps; ++rep) {
        const double g = time_once(gcfg, y_gen, d_gen);
        const double s = time_once(scfg, y_spec, d_spec);
        if (s > 0.0) ratios.push_back(g / s);
        if (rep == 0 || g < p.generic_ms) p.generic_ms = g;
        if (rep == 0 || s < p.spec_ms) p.spec_ms = s;
      }
      std::sort(ratios.begin(), ratios.end());
      p.speedup = ratios.empty() ? 1.0 : ratios[ratios.size() / 2];
      spec_points.push_back(std::move(p));
    }
  }

  std::vector<std::vector<std::string>> srows;
  for (const SpecPoint& p : spec_points) {
    srows.push_back({p.subject, p.op, std::to_string(p.k), p.specialized ? "yes" : "no",
                     harness::fmt(p.generic_ms, 3), harness::fmt(p.spec_ms, 3),
                     harness::fmt(p.speedup, 2), p.identical ? "yes" : "NO"});
  }
  std::printf("%s\n", harness::render_table({"subject", "op", "k", "spec", "generic_ms",
                                             "spec_ms", "speedup", "identical"},
                                            srows)
                          .c_str());

  if (simd::isa_supported(simd::Isa::avx2)) {
    double worst = 0.0;
    std::string worst_at = "-";
    bool have_short_gate = false;
    for (const SpecPoint& p : spec_points) {
      if (worst_at == "-" || p.speedup < worst) {
        worst = p.speedup;
        worst_at = p.subject + "/" + p.op + " k=" + std::to_string(p.k);
      }
      if (p.subject == "short_rows" && p.k == 32) {
        have_short_gate = true;
        const bool ok = p.speedup >= kSpecShortRowGate;
        if (!ok) ++failures;
        std::printf(
            "%s: specialized short_rows SpMM speedup at k=32: %.2fx (need >= %.2fx)\n",
            ok ? "PASS" : "FAIL", p.speedup, kSpecShortRowGate);
      }
    }
    if (!have_short_gate) ++failures;
    const bool floor_ok = worst >= kSpecFloor;
    if (!floor_ok) ++failures;
    std::printf("%s: specialized worst-case speedup: %.2fx at %s (need >= %.2fx)\n",
                floor_ok ? "PASS" : "FAIL", worst, worst_at.c_str(), kSpecFloor);
  } else {
    std::printf("SKIP: specialization speedup gates (host does not run AVX2)\n");
  }

  // == Dense-tile micro-GEMM vs the generic panel body ==
  const std::vector<MicroFamily> micro_families = build_micro_families();
  const MicroFamily& dense_full = micro_families.front();
  std::vector<std::pair<const MicroFamily*, index_t>> micro_cases;
  for (const index_t k : kMicroWidths) micro_cases.emplace_back(&dense_full, k);
  for (const MicroFamily& f : micro_families) {
    if (&f != &dense_full) micro_cases.emplace_back(&f, kMicroK);
  }
  std::vector<MicroPoint> micro_points;
  const bool scalar_only = best_isa == simd::Isa::scalar;
  for (const auto& [fam, k] : micro_cases) {
    const aspt::AsptMatrix& tiled = fam->plan.tiled;
    DenseMatrix x(fam->s.cols(), k);
    sparse::fill_random(x, 419);
    DenseMatrix y_gen(fam->s.rows(), k), y_micro(fam->s.rows(), k);
    dense_phase(tiled, x, y_gen, false);
    dense_phase(tiled, x, y_micro, true);

    MicroPoint p;
    p.family = fam->name;
    p.k = k;
    simd::KernelConfig plan_cfg;
    plan_cfg.spec = fam->plan.spec;
    p.selected = simd::select_kernels(plan_cfg, k).spmm_panel_dense != nullptr;
    p.identical = y_micro.max_abs_diff(y_gen) == 0.0;
    if (!p.identical) {
      ++failures;
      std::printf("FAIL: %s k=%d micro-GEMM not bitwise equal to generic panel\n",
                  p.family.c_str(), k);
    }
    const double flops = 2.0 * static_cast<double>(tiled.stats().nnz_dense) * k;
    const int iters = std::clamp(static_cast<int>(1e8 / std::max(flops, 1.0)), 2, 256);
    using Clock = std::chrono::steady_clock;
    const auto time_once = [&](bool micro, DenseMatrix& y) {
      const auto t0 = Clock::now();
      for (int it = 0; it < iters; ++it) dense_phase(tiled, x, y, micro);
      return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(Clock::now() -
                                                                                   t0)
                 .count() /
             iters;
    };
    // Interleaved pairs, as in the specialization section; reported wall
    // times are the per-side minima.
    std::vector<double> ratios;
    for (int rep = 0; rep < kMicroReps; ++rep) {
      const double g = time_once(false, y_gen);
      const double m = time_once(true, y_micro);
      if (m > 0.0) ratios.push_back(g / m);
      if (rep == 0 || g < p.generic_ms) p.generic_ms = g;
      if (rep == 0 || m < p.micro_ms) p.micro_ms = m;
    }
    std::sort(ratios.begin(), ratios.end());
    p.speedup = ratios.empty() ? 1.0 : ratios[ratios.size() / 2];
    const bool gated = fam == &dense_full && k == kMicroK;
    if (gated && scalar_only) {
      std::printf("SKIP: micro-GEMM gate at k=%d: %.2fx (scalar-only host)\n", k, p.speedup);
    } else if (gated) {
      const bool ok = p.speedup >= kMicroGate;
      if (!ok) ++failures;
      std::printf("%s: dense_full micro-GEMM speedup at k=%d: %.2fx (need >= %.2fx)\n",
                  ok ? "PASS" : "FAIL", k, p.speedup, kMicroGate);
    } else {
      std::printf("INFO: %s micro-GEMM speedup at k=%d: %.2fx (%s by select_kernels)\n",
                  p.family.c_str(), k, p.speedup, p.selected ? "selected" : "not selected");
    }
    micro_points.push_back(std::move(p));
  }

  bench::write_bench_json("BENCH_kernels.json", to_json(points, spec_points, micro_points));

  if (failures > 0) {
    std::printf("%d kernel scaling check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("all kernel scaling checks passed\n");
  return 0;
}
