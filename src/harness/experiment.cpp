#include "harness/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "kernels/simd/dispatch.hpp"
#include "runtime/worker_pool.hpp"

namespace rrspmm::harness {

const KernelTriple& MatrixRecord::spmm_at(index_t k) const {
  for (const KernelTriple& t : spmm) {
    if (t.k == k) return t;
  }
  throw std::out_of_range("no SpMM simulation at K=" + std::to_string(k));
}

const KernelTriple& MatrixRecord::sddmm_at(index_t k) const {
  for (const KernelTriple& t : sddmm) {
    if (t.k == k) return t;
  }
  throw std::out_of_range("no SDDMM simulation at K=" + std::to_string(k));
}

namespace {

/// One matrix's record — deterministic in (entry, cfg) alone, so the
/// parallel runner computes records in any order and stores them by
/// corpus index, yielding output identical to the sequential run.
MatrixRecord make_record(const synth::CorpusEntry& entry, const ExperimentConfig& cfg) {
  MatrixRecord rec;
  rec.name = entry.name;
  rec.family = entry.family;
  rec.mstats = sparse::compute_stats(entry.matrix);

  const core::ExecutionPlan nr = core::build_plan_nr(entry.matrix, cfg.pipeline);
  const core::ExecutionPlan rr = core::build_plan(entry.matrix, cfg.pipeline);
  rec.rr = rr.stats;
  rec.nr_preprocess_seconds = nr.stats.preprocess_seconds;

  for (index_t k : cfg.ks) {
    KernelTriple t;
    t.k = k;
    t.rowwise = gpusim::simulate_spmm_rowwise(entry.matrix, k, cfg.device);
    t.aspt_nr = core::simulate_spmm(nr, k, cfg.device);
    t.aspt_rr = core::simulate_spmm(rr, k, cfg.device);
    rec.spmm.push_back(t);

    if (cfg.run_sddmm) {
      KernelTriple d;
      d.k = k;
      d.rowwise = gpusim::simulate_sddmm_rowwise(entry.matrix, k, cfg.device);
      d.aspt_nr = core::simulate_sddmm(nr, k, cfg.device);
      d.aspt_rr = core::simulate_sddmm(rr, k, cfg.device);
      rec.sddmm.push_back(d);
    }
  }

  if (cfg.run_spgemm && entry.matrix.rows() == entry.matrix.cols()) {
    rec.spgemm.run = true;
    const spgemm::SymbolicResult sym = spgemm::symbolic(entry.matrix, entry.matrix);
    rec.spgemm.out_nnz = sym.nnz();
    rec.spgemm.flops = static_cast<double>(sym.flops);
    const std::vector<index_t> order = core::spgemm_row_order(rr);
    rec.spgemm.natural = gpusim::simulate_spgemm_rowwise(entry.matrix, entry.matrix, cfg.device);
    rec.spgemm.reordered = gpusim::simulate_spgemm_rowwise(entry.matrix, entry.matrix, cfg.device,
                                                           order.empty() ? nullptr : &order);
  }
  return rec;
}

void print_progress(std::size_t done, std::size_t total, const MatrixRecord& rec) {
  char spg[64] = "";
  if (rec.spgemm.run) {
    std::snprintf(spg, sizeof(spg), "  spgemm nnz=%lld x%.2f",
                  static_cast<long long>(rec.spgemm.out_nnz),
                  speedup(rec.spgemm.natural, rec.spgemm.reordered));
  }
  std::fprintf(stderr, "[%3zu/%zu] %-24s rows=%-7d nnz=%-9lld dr %.3f->%.3f sim %.3f->%.3f%s%s\n",
               done, total, rec.name.c_str(), rec.mstats.rows,
               static_cast<long long>(rec.mstats.nnz), rec.rr.dense_ratio_before,
               rec.rr.dense_ratio_after, rec.rr.avg_sim_before, rec.rr.avg_sim_after,
               rec.needs_reordering() ? "  [reordered]" : "", spg);
}

}  // namespace

std::vector<MatrixRecord> run_experiment(const std::vector<synth::CorpusEntry>& corpus,
                                         const ExperimentConfig& cfg) {
  std::vector<MatrixRecord> records(corpus.size());

  // Matrices are independent, so the corpus fans out across a worker
  // pool (RRSPMM_THREADS, default hardware concurrency). Records land at
  // their corpus index regardless of completion order, so the result —
  // and anything serialised from it — is identical to a sequential run;
  // only the stderr progress lines may interleave differently.
  const unsigned threads = static_cast<unsigned>(std::min<std::size_t>(
      runtime::WorkerPool::default_threads(), corpus.size()));
  std::atomic<std::size_t> done{0};
  const auto compute = [&](std::size_t i) {
    records[i] = make_record(corpus[i], cfg);
    const std::size_t d = done.fetch_add(1, std::memory_order_relaxed) + 1;
    if (cfg.verbose) print_progress(d, corpus.size(), records[i]);
  };

  if (threads <= 1) {
    for (std::size_t i = 0; i < corpus.size(); ++i) compute(i);
  } else {
    runtime::WorkerPool pool(threads);
    pool.parallel_for(corpus.size(), compute);
  }
  return records;
}

std::vector<MatrixRecord> run_default_experiment(const ExperimentConfig& cfg) {
  const synth::CorpusConfig ccfg = synth::corpus_config_from_env();
  if (cfg.verbose) {
    std::fprintf(stderr, "corpus: %d matrices, scale %.2f, seed %llu\n", ccfg.count, ccfg.scale,
                 static_cast<unsigned long long>(ccfg.seed));
    const kernels::simd::KernelTable& kt = kernels::simd::table(kernels::simd::active_config());
    const std::string isa(kernels::simd::isa_name(kt.isa));
    std::fprintf(stderr, "kernels: isa=%s\n", isa.c_str());
  }
  return run_experiment(synth::build_corpus(ccfg), cfg);
}

}  // namespace rrspmm::harness
