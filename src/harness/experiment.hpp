// Corpus-level experiment runner shared by all bench binaries: builds the
// ASpT-NR and ASpT-RR plans for every corpus matrix, runs the device-
// model simulations at each K, and returns one record per matrix —
// everything the paper's tables and figures are computed from.
#pragma once

#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "gpusim/device.hpp"
#include "gpusim/traffic.hpp"
#include "sparse/stats.hpp"
#include "spgemm/spgemm.hpp"
#include "synth/corpus.hpp"

namespace rrspmm::harness {

struct KernelTriple {
  index_t k = 0;
  gpusim::SimResult rowwise;   ///< cuSPARSE-class baseline (SpMM only)
  gpusim::SimResult aspt_nr;
  gpusim::SimResult aspt_rr;
};

/// A·A (adjacency squaring) effectiveness record — the sparse-output
/// counterpart of KernelTriple. Only square matrices are squared;
/// `run` stays false otherwise. Both simulations use the row-wise
/// Gustavson model; `reordered` processes A's rows in the RR plan's
/// permutation, which is what concentrates B-row (here: A-row) reuse.
struct SpgemmSim {
  bool run = false;
  offset_t out_nnz = 0;  ///< exact nnz(A·A), from spgemm::symbolic
  double flops = 0.0;    ///< 2 * multiply-add products
  gpusim::SimResult natural;
  gpusim::SimResult reordered;
};

struct MatrixRecord {
  std::string name;
  std::string family;
  sparse::MatrixStats mstats;
  core::PipelineStats rr;       ///< pipeline stats of the RR plan
  double nr_preprocess_seconds = 0.0;
  std::vector<KernelTriple> spmm;   ///< one entry per K
  std::vector<KernelTriple> sddmm;  ///< one entry per K (rowwise also simulated)
  SpgemmSim spgemm;                 ///< filled when cfg.run_spgemm and square

  /// The paper's "needs row-reordering" predicate (§4 heuristics fired
  /// at least one round).
  bool needs_reordering() const { return rr.needs_reordering(); }

  const KernelTriple& spmm_at(index_t k) const;
  const KernelTriple& sddmm_at(index_t k) const;
};

struct ExperimentConfig {
  std::vector<index_t> ks = {512, 1024};   ///< paper §5.2/§5.3
  /// pipeline.threads is the preprocessing worker count per plan build
  /// (0 = RRSPMM_THREADS); records are bitwise-identical at any value,
  /// and the per-phase timings land in MatrixRecord::rr (sig/band/
  /// score/merge_ms).
  core::PipelineConfig pipeline;
  gpusim::DeviceConfig device = gpusim::DeviceConfig::p100();
  bool run_sddmm = true;
  /// Also square every square corpus matrix (C = A·A) and simulate the
  /// Gustavson kernel with and without the RR row order. Off by default:
  /// symbolic counting is O(flops) and the SpMM/SDDMM benches don't need
  /// it.
  bool run_spgemm = false;
  bool verbose = true;  ///< progress lines on stderr
};

/// Runs the experiment over `corpus`, fanning matrices out across a
/// runtime::WorkerPool (RRSPMM_THREADS workers, default hardware
/// concurrency; set 1 to force sequential). Records are ordered by
/// corpus index, not completion order, so the output is identical for
/// any thread count.
std::vector<MatrixRecord> run_experiment(const std::vector<synth::CorpusEntry>& corpus,
                                         const ExperimentConfig& cfg);

/// The synthetic corpus from env (synth::corpus_config_from_env) run
/// through run_experiment. An external RRSPMM_CORPUS_DIR corpus enters
/// through cached_default_experiment instead.
std::vector<MatrixRecord> run_default_experiment(const ExperimentConfig& cfg = {});

/// Speedup helpers (a speedup of 1.12 = 12% faster).
inline double speedup(const gpusim::SimResult& base, const gpusim::SimResult& contender) {
  return base.time_s / contender.time_s;
}

}  // namespace rrspmm::harness
