#include "core/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>

#include <memory>

#include "kernels/sddmm.hpp"
#include "kernels/spmm.hpp"
#include "runtime/worker_pool.hpp"
#include "sparse/permute.hpp"
#include "sparse/validate.hpp"
#include "sparse/stats.hpp"

namespace rrspmm::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Average consecutive-row Jaccard similarity of the non-empty rows of
/// `m`, visited in `order`. Empty rows (fully captured by dense tiles)
/// carry no reuse either way, so they are dropped before pairing — this
/// is the paper's AvgSim indicator applied to "the remaining sparse part".
double avg_sim_nonempty(const CsrMatrix& m, const std::vector<index_t>& order) {
  index_t prev = -1;
  double sum = 0.0;
  std::int64_t pairs = 0;
  for (index_t pos = 0; pos < m.rows(); ++pos) {
    const index_t i = order[static_cast<std::size_t>(pos)];
    if (m.row_nnz(i) == 0) continue;
    if (prev >= 0) {
      sum += sparse::jaccard(m.row_cols(prev), m.row_cols(i));
      ++pairs;
    }
    prev = i;
  }
  return pairs > 0 ? sum / static_cast<double>(pairs) : 0.0;
}

void add_round_stats(PipelineStats& stats, const ReorderResult& r) {
  stats.sig_ms += r.timings.sig_ms;
  stats.band_ms += r.timings.band_ms;
  stats.score_ms += r.timings.score_ms;
  stats.merge_ms += r.timings.merge_ms;
  stats.preproc_degraded = stats.preproc_degraded || r.degraded_to_sequential;
}

}  // namespace

ExecutionPlan build_plan_nr(const CsrMatrix& m, const PipelineConfig& cfg) {
  sparse::validate_csr(m, "build_plan_nr");
  const auto t0 = Clock::now();
  ExecutionPlan plan;
  plan.row_perm = sparse::identity_permutation(m.rows());
  plan.tiled = aspt::build_aspt(m, cfg.aspt);
  plan.sparse_order = sparse::identity_permutation(m.rows());
  plan.stats.dense_ratio_before = plan.tiled.stats().dense_ratio();
  plan.stats.dense_ratio_after = plan.stats.dense_ratio_before;
  plan.stats.avg_sim_before = avg_sim_nonempty(plan.tiled.sparse_part(), plan.sparse_order);
  plan.stats.avg_sim_after = plan.stats.avg_sim_before;
  plan.spec = kernels::simd::specialize_plan(plan.tiled);
  plan.stats.preprocess_seconds = seconds_since(t0);
  return plan;
}

ExecutionPlan build_plan(const CsrMatrix& m, const PipelineConfig& cfg) {
  sparse::validate_csr(m, "build_plan");
  const auto t0 = Clock::now();
  ExecutionPlan plan;

  // One pool for both reordering rounds (threads resolved once; 1 means
  // the exact legacy sequential path with no pool at all).
  const int threads = cfg.threads > 0
                          ? cfg.threads
                          : static_cast<int>(runtime::WorkerPool::default_threads());
  std::unique_ptr<runtime::WorkerPool> pool;
  if (threads > 1) pool = std::make_unique<runtime::WorkerPool>(static_cast<unsigned>(threads));

  // Round-1 decision (§4): reorder only when the matrix does not already
  // tile densely.
  plan.stats.dense_ratio_before = aspt::dense_ratio(m, cfg.aspt);
  const bool do_round1 =
      !cfg.disable_round1 &&
      (cfg.force_round1 || plan.stats.dense_ratio_before <= cfg.dense_ratio_skip);

  if (do_round1) {
    const ReorderResult r1 = reorder_rows(m, cfg.reorder, pool.get());
    plan.row_perm = r1.order;
    plan.stats.round1_applied = true;
    plan.stats.round1_candidates = r1.candidate_pairs;
    plan.stats.round1_clusters = r1.clusters;
    add_round_stats(plan.stats, r1);
  } else {
    plan.row_perm = sparse::identity_permutation(m.rows());
  }

  const CsrMatrix permuted =
      plan.stats.round1_applied && !sparse::is_identity(plan.row_perm)
          ? sparse::permute_rows(m, plan.row_perm)
          : m;
  plan.tiled = aspt::build_aspt(permuted, cfg.aspt);
  plan.stats.dense_ratio_after = plan.tiled.stats().dense_ratio();

  // Round-2 decision (§4): reorder the sparse remainder only when it is
  // not already well clustered.
  const std::vector<index_t> ident = sparse::identity_permutation(m.rows());
  plan.stats.avg_sim_before = avg_sim_nonempty(plan.tiled.sparse_part(), ident);
  const bool do_round2 =
      !cfg.disable_round2 && plan.tiled.sparse_part().nnz() > 0 &&
      (cfg.force_round2 || plan.stats.avg_sim_before <= cfg.avg_sim_skip);

  if (do_round2) {
    const ReorderResult r2 = reorder_rows(plan.tiled.sparse_part(), cfg.reorder, pool.get());
    plan.sparse_order = r2.order;
    plan.stats.round2_applied = true;
    plan.stats.round2_candidates = r2.candidate_pairs;
    plan.stats.round2_clusters = r2.clusters;
    add_round_stats(plan.stats, r2);
    plan.stats.avg_sim_after = avg_sim_nonempty(plan.tiled.sparse_part(), plan.sparse_order);
  } else {
    plan.sparse_order = ident;
    plan.stats.avg_sim_after = plan.stats.avg_sim_before;
  }

  plan.spec = kernels::simd::specialize_plan(plan.tiled);
  plan.stats.preprocess_seconds = seconds_since(t0);
  return plan;
}

ExecutionPlan autotune_plan(const CsrMatrix& m, index_t k, const gpusim::DeviceConfig& dev,
                            const PipelineConfig& cfg) {
  ExecutionPlan rr = build_plan(m, cfg);
  ExecutionPlan nr = build_plan_nr(m, cfg);
  const double t_rr = simulate_spmm(rr, k, dev).time_s;
  const double t_nr = simulate_spmm(nr, k, dev).time_s;
  return t_rr <= t_nr ? std::move(rr) : std::move(nr);
}

ExecutionPlan autotune_plan_measured(const CsrMatrix& m, const DenseMatrix& x,
                                     const PipelineConfig& cfg) {
  ExecutionPlan rr = build_plan(m, cfg);
  ExecutionPlan nr = build_plan_nr(m, cfg);
  DenseMatrix y(m.rows(), x.cols());

  auto measure = [&](const ExecutionPlan& plan) {
    // One warm-up plus one timed iteration: the warm-up absorbs cold
    // caches so a single timed pass is a usable estimate (the paper's
    // protocol measures the first real iteration of each variant).
    run_spmm(plan, x, y);
    const auto t0 = Clock::now();
    run_spmm(plan, x, y);
    return seconds_since(t0);
  };

  const double t_rr = measure(rr);
  const double t_nr = measure(nr);
  return t_rr <= t_nr ? std::move(rr) : std::move(nr);
}

kernels::simd::KernelConfig kernel_config(const ExecutionPlan& plan,
                                          const kernels::simd::KernelConfig* pinned) {
  kernels::simd::KernelConfig cfg = pinned ? *pinned : kernels::simd::active_config();
  if (!cfg.spec) cfg.spec = plan.spec;
  return cfg;
}

void run_spmm(const ExecutionPlan& plan, DenseView x, DenseMutView y) {
  if (y.rows != plan.tiled.rows() || y.cols != x.cols) {
    throw sparse::invalid_matrix("run_spmm: y must be plan rows x x.cols");
  }
  kernels::spmm_aspt(plan.tiled, x, y, &plan.sparse_order, kernel_config(plan), &plan.row_perm);
}

void run_sddmm(const ExecutionPlan& plan, const CsrMatrix& m, DenseView x, DenseView y,
               value_t* out, std::size_t out_size) {
  if (m.rows() != plan.tiled.rows() || m.nnz() != plan.tiled.stats().nnz_total) {
    throw sparse::invalid_matrix("run_sddmm: matrix does not match the plan");
  }
  if (out_size != static_cast<std::size_t>(m.nnz())) {
    throw sparse::invalid_matrix("run_sddmm: out must hold exactly nnz values");
  }
  kernels::sddmm_aspt(plan.tiled, x, y, out, out_size, &plan.sparse_order, kernel_config(plan),
                      &plan.row_perm);
}

std::vector<index_t> spgemm_row_order(const ExecutionPlan& plan) {
  if (sparse::is_identity(plan.row_perm) && sparse::is_identity(plan.sparse_order)) return {};
  std::vector<index_t> order(plan.sparse_order.size());
  for (std::size_t p = 0; p < order.size(); ++p) {
    order[p] = plan.row_perm[static_cast<std::size_t>(plan.sparse_order[p])];
  }
  return order;
}

gpusim::SimResult simulate_spmm(const ExecutionPlan& plan, index_t k,
                                const gpusim::DeviceConfig& dev) {
  return gpusim::simulate_spmm_aspt(plan.tiled, k, dev, &plan.sparse_order);
}

gpusim::SimResult simulate_sddmm(const ExecutionPlan& plan, index_t k,
                                 const gpusim::DeviceConfig& dev) {
  return gpusim::simulate_sddmm_aspt(plan.tiled, k, dev, &plan.sparse_order);
}

}  // namespace rrspmm::core
