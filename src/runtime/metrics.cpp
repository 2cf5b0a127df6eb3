#include "runtime/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace rrspmm::runtime {

void LatencyHistogram::record(double seconds) {
  const double us = seconds * 1e6;
  int b = 0;
  if (us > 1.0) {
    b = static_cast<int>(std::ceil(std::log2(us)));
    if (b < 0) b = 0;
    if (b >= kBuckets) b = kBuckets - 1;
  }
  buckets_[static_cast<std::size_t>(b)].fetch_add(1, std::memory_order_relaxed);
  const double ns = seconds * 1e9;
  total_ns_.fetch_add(ns > 0 ? static_cast<std::uint64_t>(ns) : 0, std::memory_order_relaxed);
}

double LatencyHistogram::quantile(double q) const {
  std::array<std::uint64_t, kBuckets> snap{};
  std::uint64_t n = 0;
  for (int i = 0; i < kBuckets; ++i) {
    snap[static_cast<std::size_t>(i)] = bucket_count(i);
    n += snap[static_cast<std::size_t>(i)];
  }
  if (n == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the requested quantile, 1-based; walk buckets to find it.
  const std::uint64_t rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += snap[static_cast<std::size_t>(i)];
    if (seen >= rank) return std::exp2(i) * 1e-6;
  }
  return std::exp2(kBuckets - 1) * 1e-6;
}

std::uint64_t LatencyHistogram::count() const {
  std::uint64_t n = 0;
  for (int i = 0; i < kBuckets; ++i) n += bucket_count(i);
  return n;
}

double LatencyHistogram::total_seconds() const {
  return static_cast<double>(total_ns_.load(std::memory_order_relaxed)) * 1e-9;
}

std::string Metrics::to_json() const {
  const auto get = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  std::ostringstream os;
  os.precision(9);
  os << "{";
  os << "\"cache_hits\":" << get(cache_hits) << ",";
  os << "\"cache_misses\":" << get(cache_misses) << ",";
  os << "\"cache_evictions\":" << get(cache_evictions) << ",";
  os << "\"plans_built\":" << get(plans_built) << ",";
  os << "\"requests_submitted\":" << get(requests_submitted) << ",";
  os << "\"requests_completed\":" << get(requests_completed) << ",";
  os << "\"requests_failed\":" << get(requests_failed) << ",";
  os << "\"batches_executed\":" << get(batches_executed) << ",";
  os << "\"panels_executed\":" << get(panels_executed) << ",";
  os << "\"queue_depth\":" << get(queue_depth) << ",";
  os << "\"kernel_invocations\":{";
  for (std::size_t i = 0; i < kernels::simd::kIsaCount; ++i) {
    if (i) os << ",";
    os << "\"" << isa_name(static_cast<kernels::simd::Isa>(i)) << "\":"
       << get(kernel_invocations[i]);
  }
  os << "},";
  os << "\"kernel_specialized\":" << get(kernel_specialized) << ",";
  os << "\"spgemm_batches\":" << get(spgemm_batches) << ",";
  os << "\"spgemm_flops\":" << get(spgemm_flops) << ",";
  os << "\"spgemm_output_nnz\":" << get(spgemm_output_nnz) << ",";
  os << "\"spgemm_rows_hash\":" << get(spgemm_rows_hash) << ",";
  os << "\"spgemm_rows_sort\":" << get(spgemm_rows_sort) << ",";
  os << "\"spgemm_rows_dense\":" << get(spgemm_rows_dense) << ",";
  os << "\"spgemm_degradations\":" << get(spgemm_degradations) << ",";
  os << "\"faults_injected\":" << get(faults_injected) << ",";
  os << "\"retries\":" << get(retries) << ",";
  os << "\"degradations\":" << get(degradations) << ",";
  os << "\"preproc_sig_us\":" << get(preproc_sig_us) << ",";
  os << "\"preproc_band_us\":" << get(preproc_band_us) << ",";
  os << "\"preproc_score_us\":" << get(preproc_score_us) << ",";
  os << "\"preproc_merge_us\":" << get(preproc_merge_us) << ",";
  os << "\"preproc_degradations\":" << get(preproc_degradations) << ",";
  os << "\"zero_copy_requests\":" << get(zero_copy_requests) << ",";
  os << "\"zero_copy_fallbacks\":" << get(zero_copy_fallbacks) << ",";
  os << "\"submit_copy_us\":" << get(submit_copy_us) << ",";
  os << "\"execute_us\":" << get(execute_us) << ",";
  os << "\"latency_count\":" << latency.count() << ",";
  os << "\"latency_total_s\":" << latency.total_seconds() << ",";
  os << "\"latency_p50_s\":" << latency.quantile(0.50) << ",";
  os << "\"latency_p95_s\":" << latency.quantile(0.95) << ",";
  os << "\"latency_p99_s\":" << latency.quantile(0.99) << ",";
  os << "\"latency_p999_s\":" << latency.quantile(0.999) << ",";
  os << "\"p999_us\":" << latency.quantile(0.999) * 1e6;
  os << "}";
  return os.str();
}

}  // namespace rrspmm::runtime
