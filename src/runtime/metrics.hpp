// Serving-runtime observability: lock-free counters and a fixed-bucket
// latency histogram, dumpable as JSON. Everything here is written on hot
// paths from many threads at once, so all state is std::atomic with
// relaxed ordering — the numbers are monotone counters whose exact
// interleaving does not matter, only their eventual totals.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "kernels/simd/isa.hpp"

namespace rrspmm::runtime {

/// Power-of-two-microsecond latency histogram: bucket i counts requests
/// whose latency is in (2^(i-1), 2^i] µs, bucket 0 everything ≤ 1 µs,
/// the last bucket everything slower. 40 buckets cover ~1 µs to ~9 days.
/// Quantiles are read as the upper edge of the bucket containing the
/// requested rank — a ≤2x overestimate by construction, which is the
/// usual fixed-bucket tradeoff (no allocation, no locks, mergeable).
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 40;

  void record(double seconds);

  /// Upper bucket edge (seconds) at quantile q in [0, 1]; 0 when empty.
  double quantile(double q) const;

  std::uint64_t count() const;
  double total_seconds() const;

  /// Per-bucket counts (index i -> count), for external aggregation.
  std::uint64_t bucket_count(int i) const {
    return buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> total_ns_{0};
};

/// Counters shared by PlanCache, WorkerPool executions, and Server.
/// Aggregated, not per-matrix: the serving runtime is one process-wide
/// engine and these are its health gauges.
struct Metrics {
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> cache_misses{0};
  std::atomic<std::uint64_t> cache_evictions{0};
  std::atomic<std::uint64_t> plans_built{0};

  std::atomic<std::uint64_t> requests_submitted{0};
  std::atomic<std::uint64_t> requests_completed{0};
  std::atomic<std::uint64_t> requests_failed{0};
  /// SpMM executions: one per served SpMM request. SDDMM and SpGEMM
  /// requests are not counted here (spgemm_batches counts SpGEMM).
  std::atomic<std::uint64_t> batches_executed{0};
  /// Row-panel tasks executed by the panel-parallel kernels.
  std::atomic<std::uint64_t> panels_executed{0};
  /// Requests currently queued or executing (gauge, not a counter).
  std::atomic<std::uint64_t> queue_depth{0};

  /// Zero-copy serving data path: requests admitted on borrowed views
  /// (no input copy, kernels write the caller's buffer) vs view requests
  /// that fell back to the owned-copy path (misaligned storage or
  /// ServerConfig::zero_copy off). Owned DenseMatrix submissions count in
  /// neither.
  std::atomic<std::uint64_t> zero_copy_requests{0};
  std::atomic<std::uint64_t> zero_copy_fallbacks{0};
  /// Operand copy time of the view fallback vs execution time (µs
  /// totals) on the Server. execute_us adds the panel-parallel run of
  /// every execution attempt of every request kind (SpMM, SDDMM and
  /// SpGEMM), plan fetch excluded; the degraded sequential path is not
  /// counted. A zero-copy request accrues no submit_copy_us.
  std::atomic<std::uint64_t> submit_copy_us{0};
  std::atomic<std::uint64_t> execute_us{0};

  /// Kernel invocations by resolved SIMD backend (index = simd::Isa):
  /// which ISA the dispatcher actually ran, per row-range / full kernel
  /// call issued through this runtime. The kernels layer keeps its own
  /// process-wide totals (simd::invocation_counts()); these are the
  /// serving-scoped view.
  std::array<std::atomic<std::uint64_t>, kernels::simd::kIsaCount> kernel_invocations{};

  /// Kernel calls whose selection substituted at least one AOT
  /// plan-specialized entry (K-width or classed short-row driver).
  std::atomic<std::uint64_t> kernel_specialized{0};

  /// Counts one kernel call: its resolved ISA, and whether its selection
  /// was specialized.
  void count_kernel(kernels::simd::Isa isa, bool specialized) {
    kernel_invocations[static_cast<std::size_t>(isa)].fetch_add(1, std::memory_order_relaxed);
    if (specialized) kernel_specialized.fetch_add(1, std::memory_order_relaxed);
  }

  /// SpGEMM (CSR×CSR) requests executed, including degraded ones.
  std::atomic<std::uint64_t> spgemm_batches{0};
  /// Useful SpGEMM floating-point work (2 per product), counted once per
  /// executed symbolic pass — a retried attempt counts again, a degraded
  /// sequential run does not (it bypasses the instrumented paths).
  std::atomic<std::uint64_t> spgemm_flops{0};
  /// Output nonzeros produced by instrumented SpGEMM executions.
  std::atomic<std::uint64_t> spgemm_output_nnz{0};
  /// Accumulator-choice histogram: output rows accumulated via the hash
  /// map, the sort-based or the dense accumulator (successful executions
  /// only).
  std::atomic<std::uint64_t> spgemm_rows_hash{0};
  std::atomic<std::uint64_t> spgemm_rows_sort{0};
  std::atomic<std::uint64_t> spgemm_rows_dense{0};
  /// SpGEMM requests that fell back to the sequential sort-based
  /// multiply after retries were exhausted.
  std::atomic<std::uint64_t> spgemm_degradations{0};

  /// fault::injected_fault exceptions observed by the request retry loop.
  /// Stall injections and faults that never reach it are counted by the
  /// FaultRegistry, not here.
  std::atomic<std::uint64_t> faults_injected{0};
  /// Execution attempts repeated after a failure (with backoff).
  std::atomic<std::uint64_t> retries{0};
  /// Requests that fell back to single-device sequential execution after
  /// retries were exhausted.
  std::atomic<std::uint64_t> degradations{0};

  /// Preprocessing phase totals (µs) accumulated from every plan built
  /// through the PlanCache — the serving-side view of the per-phase
  /// timings the harness records per matrix.
  std::atomic<std::uint64_t> preproc_sig_us{0};
  std::atomic<std::uint64_t> preproc_band_us{0};
  std::atomic<std::uint64_t> preproc_score_us{0};
  std::atomic<std::uint64_t> preproc_merge_us{0};
  /// Plan builds whose parallel preprocessing threw and fell back to the
  /// sequential path (bitwise-equal result, see ReorderResult).
  std::atomic<std::uint64_t> preproc_degradations{0};

  LatencyHistogram latency;

  /// One JSON object with every counter plus p50/p95/p99/p999 latency in
  /// seconds (and p999_us in microseconds for tail-SLO dashboards).
  /// Values are read individually (relaxed), so a dump taken while
  /// traffic is in flight is approximate but well-formed.
  std::string to_json() const;
};

}  // namespace rrspmm::runtime
