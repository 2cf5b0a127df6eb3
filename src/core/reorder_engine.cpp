#include "core/reorder_engine.hpp"

#include <chrono>
#include <exception>

#include "runtime/worker_pool.hpp"

namespace rrspmm::core {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

ReorderResult run_round(const CsrMatrix& m, const ReorderConfig& cfg,
                        runtime::WorkerPool* pool) {
  ReorderResult out;
  std::vector<lsh::CandidatePair> pairs;
  if (pool != nullptr) {
    try {
      pairs = lsh::find_candidate_pairs(m, cfg.lsh, pool, &out.timings);
    } catch (const std::exception&) {
      // A failure inside the parallel stages (an injected fault, an
      // exception escaping a worker chunk) degrades to the sequential
      // path, which carries no fault probes and computes the identical
      // result — the preprocessing analogue of the server's degradation
      // to single-device execution.
      out.timings = {};
      out.degraded_to_sequential = true;
      pairs = lsh::find_candidate_pairs(m, cfg.lsh, nullptr, &out.timings);
    }
  } else {
    pairs = lsh::find_candidate_pairs(m, cfg.lsh, nullptr, &out.timings);
  }

  const auto t0 = Clock::now();
  const cluster::ClusterResult cl = cluster::cluster_reorder(m, pairs, cfg.cluster, pool);
  out.timings.merge_ms = ms_since(t0);
  out.order = cl.order;
  out.candidate_pairs = pairs.size();
  out.clusters = cl.num_clusters;
  out.merges = cl.merges;
  return out;
}

}  // namespace

ReorderResult reorder_rows(const CsrMatrix& m, const ReorderConfig& cfg,
                           runtime::WorkerPool* pool) {
  return run_round(m, cfg, pool != nullptr && pool->size() > 1 ? pool : nullptr);
}

ReorderResult reorder_rows(const CsrMatrix& m, const ReorderConfig& cfg) {
  const int threads =
      cfg.threads > 0 ? cfg.threads : static_cast<int>(runtime::WorkerPool::default_threads());
  if (threads <= 1) return run_round(m, cfg, nullptr);
  runtime::WorkerPool pool(static_cast<unsigned>(threads));
  return run_round(m, cfg, &pool);
}

}  // namespace rrspmm::core
