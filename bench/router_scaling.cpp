// Adaptive-execution router bench: a three-family SpMM corpus built so
// no single static configuration wins everywhere — short rows (the AOT
// specialization's home turf), fully dense panels (the micro-GEMM's),
// and a tiny matrix (sequential execution's). A fresh online Router runs
// the closed decide -> execute -> observe loop per family and its total
// wall time is compared against the oracle-static baseline: the best
// SINGLE arm applied to the whole corpus. Prints a fixed-width table
// plus PASS/FAIL checks and writes BENCH_router.json.
//
// Checks:
//   * bitwise identity — every candidate arm on every family must equal
//     core::run_spmm exactly; enforced unconditionally on every host.
//   * adaptivity — router total >= 0.98x of oracle-static (i.e. the
//     closed loop recovers per-family routing despite exploration cost).
//   * micro-GEMM — the dense-tile micro-GEMM entry beats the generic
//     panel body by >= 1.2x on the dense-panel family at k=32, the width
//     where the staged tile stays L1-resident (d*k*4B = 8 KiB). The two
//     table entries are timed directly over the ASpT dense-tile phase, so
//     the comparison does not depend on the rule that picks between them.
//     INFO rows back select_kernels' rule (micro-GEMM at k <= 32 on plans
//     whose dense tile rows are mostly fully dense): dense_full at k = 8,
//     16 and 64 (where the tile spills L1 and the micro-GEMM loses), and
//     the other two families at k=32, which have no fully dense tile rows.
//     Scalar-only hosts skip the gate.
//
//   RRSPMM_SCALE — linear multiplier on matrix rows (default 1)
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/fingerprint.hpp"
#include "core/pipeline.hpp"
#include "harness/render.hpp"
#include "kernels/detail/staging.hpp"
#include "kernels/simd/dispatch.hpp"
#include "router/router.hpp"
#include "runtime/execute.hpp"
#include "synth/generators.hpp"

namespace rrspmm {
namespace {

namespace simd = kernels::simd;
using sparse::CsrMatrix;
using sparse::DenseMatrix;

constexpr index_t kK = 32;           ///< operand width of the routed corpus
constexpr int kBatches = 96;         ///< closed-loop batches per family
constexpr int kReps = 3;             ///< best-of, to shave scheduler noise
constexpr double kOracleGate = 0.98; ///< router vs oracle-static total
constexpr double kMicroGate = 1.2;   ///< micro-GEMM vs generic panel body
constexpr int kMicroReps = 9;        ///< interleaved pairs; speedup = median ratio
constexpr index_t kMicroWidths[] = {8, 16, 32, 64};  ///< dense_full rows

double env_scale() {
  if (const char* s = std::getenv("RRSPMM_SCALE")) {
    const double v = std::atof(s);
    if (v > 0.0) return v;
  }
  return 1.0;
}

struct Family {
  std::string name;
  CsrMatrix s;
  core::ExecutionPlan plan;
  std::vector<router::RouteChoice> arms;
  int iters = 1;  ///< kernel runs per "batch" (sized for a timeable window)
};

/// Every row 1..4 nonzeros over a narrow column range: per-row overhead
/// dominates, which is what the classed short-row driver removes (same
/// recipe as kernel_scaling's specialization section).
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

std::vector<Family> build_families() {
  const double scale = env_scale();
  std::vector<Family> out;

  {
    Family f;
    f.name = "short_rows";
    f.s = short_row_matrix(static_cast<index_t>(4096 * scale), 512, 311);
    out.push_back(std::move(f));
  }
  {
    // Row groups exactly one panel tall whose rows each cover the whole
    // 64-column pool: every dense-tile row is fully populated, so the
    // micro-GEMM pairs all of them (dense_full_fraction == 1).
    Family f;
    f.name = "dense_full";
    synth::ClusteredParams p;
    p.rows = static_cast<index_t>(4096 * scale);
    p.cols = 4096;
    p.num_groups = 64;
    p.group_cols = 64;
    p.row_nnz = 64;
    p.noise_nnz = 0;
    p.scatter = false;
    p.disjoint_pools = true;
    f.s = synth::clustered_rows(p, 331);
    out.push_back(std::move(f));
  }
  {
    // Small enough that worker-pool task dispatch dwarfs the kernel.
    Family f;
    f.name = "tiny";
    f.s = synth::erdos_renyi(128, 128, 4096, 337);
    out.push_back(std::move(f));
  }

  for (Family& f : out) {
    f.plan = core::build_plan(f.s, {});
    f.plan.fingerprint = core::matrix_fingerprint(f.s);
    f.arms = router::Router::spmm_arms(f.s.rows());
    // ~10M scalar flops per batch so even the fastest arm is timeable.
    const double flops = 2.0 * static_cast<double>(f.s.nnz()) * kK;
    f.iters = std::clamp(static_cast<int>(1e7 / std::max(flops, 1.0)), 1, 256);
  }
  return out;
}

/// Executes one batch under `choice` the way the Server maps decisions:
/// threads == 1 is the sequential plan path, everything else runs the
/// worker pool with the arm's spec_mode (0 = configured) pinned per call.
void run_arm(runtime::WorkerPool& pool, const Family& f, const router::RouteChoice& choice,
             const DenseMatrix& x, DenseMatrix& y) {
  if (choice.threads == 1) {
    core::run_spmm(f.plan, x, y);
    return;
  }
  simd::KernelConfig kc = simd::active_config();
  if (choice.spec_mode != 0) kc.spec_mode = static_cast<simd::SpecMode>(choice.spec_mode);
  runtime::parallel_spmm(pool, f.plan, x, y, nullptr, &kc);
}

/// One timed batch (f.iters kernel runs), in microseconds.
double time_batch_us(runtime::WorkerPool& pool, const Family& f,
                     const router::RouteChoice& choice, const DenseMatrix& x, DenseMatrix& y) {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  for (int it = 0; it < f.iters; ++it) run_arm(pool, f, choice, x, y);
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(Clock::now() - t0)
      .count();
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

struct ArmPoint {
  std::string family;
  std::string arm;
  double batch_us = 0.0;  ///< best-of-kReps
  bool identical = true;  ///< bitwise vs core::run_spmm
};

}  // namespace
}  // namespace rrspmm

int main() {
  using namespace rrspmm;

  const router::RouterConfig rcfg = [] {
    router::RouterConfig c;
    c.min_samples = 2;
    c.explore_period = 48;
    return c;
  }();
  auto families = build_families();
  runtime::WorkerPool pool;

  std::printf("== router scaling: %zu families, K=%d, %d batches each ==\n", families.size(),
              kK, kBatches);

  int failures = 0;

  // Per-(family, arm) bitwise check + calibrated batch time. The arm
  // union across families is the oracle's static-candidate set.
  std::vector<ArmPoint> points;
  std::map<std::string, router::RouteChoice> candidates;
  for (const Family& f : families) {
    for (const router::RouteChoice& c : f.arms) candidates.emplace(c.key(), c);
  }
  // family -> arm key -> batch_us
  std::map<std::string, std::map<std::string, double>> cost;
  for (const Family& f : families) {
    DenseMatrix x(f.s.cols(), kK);
    sparse::fill_random(x, 401);
    DenseMatrix y_ref(f.s.rows(), kK);
    core::run_spmm(f.plan, x, y_ref);

    for (const auto& [key, choice] : candidates) {
      DenseMatrix y(f.s.rows(), kK);
      run_arm(pool, f, choice, x, y);  // warmup + correctness result
      ArmPoint p;
      p.family = f.name;
      p.arm = key;
      p.identical = y.max_abs_diff(y_ref) == 0.0;
      if (!p.identical) {
        ++failures;
        std::printf("FAIL: %s arm %s not bitwise equal to core::run_spmm\n", f.name.c_str(),
                    key.c_str());
      }
      for (int rep = 0; rep < kReps; ++rep) {
        const double us = time_batch_us(pool, f, choice, x, y);
        if (rep == 0 || us < p.batch_us) p.batch_us = us;
      }
      cost[f.name][key] = p.batch_us;
      points.push_back(std::move(p));
    }
  }

  std::vector<std::vector<std::string>> rows;
  for (const ArmPoint& p : points) {
    rows.push_back({p.family, p.arm, harness::fmt(p.batch_us / 1e3, 3),
                    p.identical ? "yes" : "NO"});
  }
  std::printf("%s\n",
              harness::render_table({"family", "arm", "batch_ms", "identical"}, rows).c_str());

  // Oracle-static: best single arm by calibrated total over the corpus.
  std::string oracle_arm;
  double oracle_total_us = 0.0;
  for (const auto& [key, choice] : candidates) {
    double total = 0.0;
    for (const Family& f : families) total += cost[f.name][key] * kBatches;
    if (oracle_arm.empty() || total < oracle_total_us) {
      oracle_total_us = total;
      oracle_arm = key;
    }
  }

  // Closed loop: a fresh online router decides each batch, executes the
  // decided arm, and feeds the measured latency back.
  router::Router router(rcfg);
  double router_total_us = 0.0;
  for (const Family& f : families) {
    DenseMatrix x(f.s.cols(), kK);
    sparse::fill_random(x, 409);
    DenseMatrix y(f.s.rows(), kK);
    for (int b = 0; b < kBatches; ++b) {
      const router::Decision dec =
          router.decide(f.plan.fingerprint, router::Workload::spmm, kK, f.arms);
      const double us = time_batch_us(pool, f, dec.choice, x, y);
      router.observe(f.plan.fingerprint, router::Workload::spmm, kK, dec.choice, us);
      router_total_us += us;
    }
  }

  const double ratio = router_total_us > 0.0 ? oracle_total_us / router_total_us : 0.0;
  std::printf("oracle-static arm %s: total %.1f ms; router total %.1f ms "
              "(%" PRIu64 " decisions, %" PRIu64 " explorations)\n",
              oracle_arm.c_str(), oracle_total_us / 1e3, router_total_us / 1e3,
              router.decisions(), router.explorations());
  const bool oracle_ok = ratio >= kOracleGate;
  if (!oracle_ok) ++failures;
  std::printf("%s: router total within %.2fx of oracle-static: %.3fx\n",
              oracle_ok ? "PASS" : "FAIL", kOracleGate, ratio);

  // Micro-GEMM gate on the dense-panel family, plus the INFO rows that
  // back select_kernels' k <= 32 rule: the two dense-phase entries of the
  // same auto-resolved backend, timed directly.
  struct MicroPoint {
    std::string family;
    index_t k = 0;
    bool selected = false;  ///< select_kernels picks the micro-GEMM at k
    double generic_ms = 0.0, micro_ms = 0.0;
    double speedup = 1.0;
    bool identical = true;
  };
  std::vector<std::pair<const Family*, index_t>> micro_cases;
  const Family& dense = families[1];
  for (const index_t k : kMicroWidths) micro_cases.emplace_back(&dense, k);
  for (const Family& f : families) {
    if (&f != &dense) micro_cases.emplace_back(&f, kK);
  }
  std::vector<MicroPoint> micro_points;
  const bool scalar_only = simd::resolve_isa(std::nullopt) == simd::Isa::scalar;
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
    // Interleaved pairs, as in kernel_scaling: host-load drift hits both
    // sides of each ratio, and the median discards spike-hit pairs.
    // Reported wall times are the per-side minima.
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
    const bool gated = fam == &dense && k == kK;
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
    micro_points.push_back(p);
  }

  bench::JsonWriter js;
  js.obj_begin()
      .field("bench", "router_scaling")
      .field("auto_isa", simd::isa_name(simd::resolve_isa(std::nullopt)))
      .field("k", kK)
      .field("batches", kBatches)
      .key("results")
      .arr_begin();
  for (const ArmPoint& p : points) {
    js.obj_begin()
        .field("family", p.family)
        .field("arm", p.arm)
        .field("batch_us", p.batch_us)
        .field("identical", p.identical)
        .obj_end();
  }
  js.arr_end()
      .key("router")
      .obj_begin()
      .field("oracle_arm", oracle_arm)
      .field("oracle_total_us", oracle_total_us)
      .field("router_total_us", router_total_us)
      .field("oracle_ratio", ratio)
      .field("decisions", router.decisions())
      .field("explorations", router.explorations())
      .obj_end()
      .key("micro_gemm")
      .arr_begin();
  for (const MicroPoint& p : micro_points) {
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
  bench::write_bench_json("BENCH_router.json", js.str());

  if (failures > 0) {
    std::printf("%d router scaling check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("all router scaling checks passed\n");
  return 0;
}
