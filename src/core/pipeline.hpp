// The paper's end-to-end workflow (Fig 5) and when-to-reorder heuristics
// (§4) — the public entry point of the library.
//
//   build_plan(m)     -> ASpT-RR: round-1 row reorder (unless the matrix
//                        already tiles densely), ASpT tiling, round-2
//                        reorder of the sparse remainder (unless it is
//                        already well clustered).
//   build_plan_nr(m)  -> ASpT-NR: the Hong et al. baseline, no reordering.
//   autotune_plan(..) -> the paper's trial-and-error strategy: build both,
//                        keep whichever the device model says is faster.
//
// A plan owns everything the kernels and the simulator need: the round-1
// permutation, the tiling built on the permuted matrix, and the round-2
// sparse-row processing order, plus the statistics (ΔDenseRatio, ΔAvgSim,
// preprocessing time) the paper's evaluation reports.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "aspt/aspt.hpp"
#include "core/reorder_engine.hpp"
#include "kernels/simd/dispatch.hpp"
#include "kernels/simd/specialize.hpp"
#include "gpusim/device.hpp"
#include "gpusim/traffic.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "sparse/dense_view.hpp"

namespace rrspmm::core {

using sparse::DenseMatrix;
using sparse::DenseMutView;
using sparse::DenseView;

struct PipelineConfig {
  ReorderConfig reorder;   ///< LSH + clustering parameters (both rounds)
  aspt::AsptConfig aspt;   ///< tiling parameters

  /// §4 round-1 skip: if the original matrix's dense-tile nonzero ratio
  /// exceeds this, it is already well tiled — do not reorder. Paper: 10%.
  double dense_ratio_skip = 0.10;
  /// §4 round-2 skip: if the sparse remainder's average consecutive-row
  /// Jaccard similarity exceeds this, it is already well clustered.
  /// Paper: 0.1.
  double avg_sim_skip = 0.10;

  /// Ablation switches: force a round to run regardless of the
  /// heuristics, or disable it entirely.
  bool force_round1 = false;
  bool force_round2 = false;
  bool disable_round1 = false;
  bool disable_round2 = false;

  /// Preprocessing worker count: 0 means WorkerPool::default_threads()
  /// (the RRSPMM_THREADS knob), 1 the exact legacy sequential path. One
  /// pool is shared by both reordering rounds. Outputs are bitwise
  /// identical at every thread count, so this knob is deliberately
  /// excluded from pipeline_fingerprint (plan caches stay valid across
  /// thread-count changes).
  int threads = 0;
};

/// Per-plan statistics. Before/after pairs are the axes of the paper's
/// Fig 9 effectiveness analysis.
struct PipelineStats {
  double dense_ratio_before = 0.0;  ///< DenseRatio of the input under cfg.aspt
  double dense_ratio_after = 0.0;   ///< DenseRatio of the (possibly reordered) matrix
  double avg_sim_before = 0.0;      ///< AvgSim of the sparse part pre round 2
  double avg_sim_after = 0.0;       ///< AvgSim of the sparse part in processing order
  bool round1_applied = false;
  bool round2_applied = false;
  std::size_t round1_candidates = 0;
  std::size_t round2_candidates = 0;
  index_t round1_clusters = 0;
  index_t round2_clusters = 0;
  double preprocess_seconds = 0.0;  ///< wall time of reordering + tiling

  /// Per-phase preprocessing breakdown, summed over the rounds that ran
  /// (ms): signatures, banding group-by, Jaccard scoring, clustering.
  /// The measured decomposition of the Fig 12 lump figure.
  double sig_ms = 0.0;
  double band_ms = 0.0;
  double score_ms = 0.0;
  double merge_ms = 0.0;
  /// True when at least one round's parallel preprocessing threw and was
  /// recomputed sequentially (see ReorderResult::degraded_to_sequential).
  bool preproc_degraded = false;

  double delta_dense_ratio() const { return dense_ratio_after - dense_ratio_before; }
  double delta_avg_sim() const { return avg_sim_after - avg_sim_before; }
  /// True if the §4 heuristics asked for at least one round — the
  /// paper's "matrices that need row-reordering" (416 of 1084).
  bool needs_reordering() const { return round1_applied || round2_applied; }
};

struct ExecutionPlan {
  /// Round-1 gather permutation (identity when skipped): row i of the
  /// tiled matrix is row row_perm[i] of the caller's matrix.
  std::vector<index_t> row_perm;
  /// ASpT tiling of the permuted matrix.
  aspt::AsptMatrix tiled;
  /// Round-2 processing order of the sparse remainder's rows, in
  /// permuted row space (identity when skipped).
  std::vector<index_t> sparse_order;
  PipelineStats stats;
  /// AOT kernel-specialization record built from the tiling's row-length
  /// and panel statistics (kernels/simd/specialize.hpp). Shared so the
  /// PlanCache drops it together with an evicted plan while in-flight
  /// executions keep theirs alive; plan-aware execution paths attach it
  /// to the KernelConfig they hand the kernels.
  std::shared_ptr<const kernels::simd::SpecializationPlan> spec;
};

/// Full ASpT-RR pipeline.
ExecutionPlan build_plan(const CsrMatrix& m, const PipelineConfig& cfg = {});

/// ASpT-NR baseline: tiling only, identity permutations. Stats carry the
/// before-values so callers can still ask needs_reordering().
ExecutionPlan build_plan_nr(const CsrMatrix& m, const PipelineConfig& cfg = {});

/// Trial-and-error (§4): builds both plans, simulates SpMM at width `k`
/// on `dev`, returns the faster plan.
ExecutionPlan autotune_plan(const CsrMatrix& m, index_t k, const gpusim::DeviceConfig& dev,
                            const PipelineConfig& cfg = {});

/// The paper's online protocol verbatim: build both plans, run one real
/// SpMM iteration through each on the host kernels (x is a caller-
/// provided operand, so the measurement uses the deployment's actual K),
/// keep whichever was faster. "If the reordered matrix is faster, keep
/// the row-reordering for the rest of iterations; otherwise, discard it."
ExecutionPlan autotune_plan_measured(const CsrMatrix& m, const DenseMatrix& x,
                                     const PipelineConfig& cfg = {});

/// The kernel configuration of one plan-driven operation: the caller's
/// pinned config, else the process-wide simd::active_config(), with the
/// plan's specialization record attached unless the config carries its
/// own. Resolved once per operation, so every task of one call uses the
/// same backend even if the process-wide config changes mid-flight.
kernels::simd::KernelConfig kernel_config(const ExecutionPlan& plan,
                                          const kernels::simd::KernelConfig* pinned = nullptr);

/// Executes SpMM through a plan on the CPU kernels, single-threaded on
/// the calling thread (runtime::parallel_spmm is the multi-core path):
/// y = m * x in the caller's original row order. `y` is pre-shaped
/// caller storage (plan rows x x.cols; a DenseMatrix converts
/// implicitly); the kernels write tiled row i straight to y row
/// row_perm[i]. A misshapen `y` throws invalid_matrix.
void run_spmm(const ExecutionPlan& plan, DenseView x, DenseMutView y);

/// Executes SDDMM through a plan, single-threaded on the calling thread
/// (runtime::parallel_sddmm is the multi-core path), into
/// out[0, out_size), which must hold exactly m.nnz() values, aligned
/// with the caller's original CSR nonzero order (otherwise
/// invalid_matrix). `m` must be the matrix the
/// plan was built from: the kernels read Y row row_perm[i] for tiled row
/// i and write its outputs at that row's slots in m's CSR order.
void run_sddmm(const ExecutionPlan& plan, const CsrMatrix& m, DenseView x, DenseView y,
               value_t* out, std::size_t out_size);

/// Gustavson processing order for SpGEMM over the plan's matrix as the
/// left operand: round-2's processing order composed with round-1's
/// physical permutation — position p processes original row
/// row_perm[sparse_order[p]] (sparse_order indexes permuted row space).
/// Returns an empty vector when both rounds were skipped, i.e. natural
/// order. Any order yields bitwise-identical products; this one places
/// rows with similar B-row footprints adjacently for cache reuse.
std::vector<index_t> spgemm_row_order(const ExecutionPlan& plan);

/// Device-model predictions for a plan.
gpusim::SimResult simulate_spmm(const ExecutionPlan& plan, index_t k,
                                const gpusim::DeviceConfig& dev);
gpusim::SimResult simulate_sddmm(const ExecutionPlan& plan, index_t k,
                                 const gpusim::DeviceConfig& dev);

}  // namespace rrspmm::core
