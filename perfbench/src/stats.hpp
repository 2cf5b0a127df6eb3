// Exact-sample statistics and derived metrics for the serving benchmark.
//
// Latency quantiles come from the benchmark's own per-request timestamps,
// never from runtime::LatencyHistogram (whose power-of-two buckets read
// back as bucket edges). Everything here is header-only and pure, so the
// self-test exercises exactly what the benchmark runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Quantile q in [0, 1] of exact samples, linearly interpolated between
/// the two nearest order statistics (position q * (n - 1) in the sorted
/// samples; numpy's default "linear" method). Throws on an empty input.
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("quantile of no samples");
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

inline double quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return quantile_sorted(samples, q);
}

inline double median(std::vector<double> samples) { return quantile(std::move(samples), 0.5); }

/// Latency summary of one timed phase: the median, p95, p99, and how
/// many samples lie strictly beyond p99 (the tail the p99 figure rests on).
struct LatencySummary {
  std::size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  std::size_t beyond_p99 = 0;
};

inline LatencySummary summarize(std::vector<double> samples) {
  LatencySummary s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.count = samples.size();
  double sum = 0.0;
  for (double v : samples) sum += v;
  s.mean = sum / static_cast<double>(s.count);
  s.p50 = quantile_sorted(samples, 0.50);
  s.p95 = quantile_sorted(samples, 0.95);
  s.p99 = quantile_sorted(samples, 0.99);
  s.beyond_p99 = static_cast<std::size_t>(
      samples.end() - std::upper_bound(samples.begin(), samples.end(), s.p99));
  return s;
}

/// Work completed per second in equal windows of about `window_s` that
/// tile [0, total_s): completion i (at done_s[i], carrying work[i]) lands
/// in the window holding its instant. The median over these windows is
/// the throughput figure: a burst of interference from outside the
/// process moves a few windows, not the median.
inline std::vector<double> window_rates(const std::vector<double>& done_s,
                                        const std::vector<double>& work, double total_s,
                                        double window_s) {
  if (done_s.size() != work.size()) throw std::invalid_argument("window_rates: size mismatch");
  if (!(total_s > 0.0) || !(window_s > 0.0)) return {};
  const std::size_t n = std::max<std::size_t>(1, static_cast<std::size_t>(total_s / window_s));
  const double w = total_s / static_cast<double>(n);
  std::vector<double> rates(n, 0.0);
  for (std::size_t i = 0; i < done_s.size(); ++i) {
    const auto b = static_cast<std::size_t>(std::max(0.0, done_s[i]) / w);
    rates[std::min(b, n - 1)] += work[i];
  }
  for (double& r : rates) r /= w;
  return rates;
}

/// Fraction of attempted requests that failed; 0 when nothing was tried.
inline double failed_fraction(std::size_t failed, std::size_t attempted) {
  return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
}

/// num / base, 0 when the base is 0 (a ratio is always given with its base).
inline double ratio(double num, double base) { return base == 0.0 ? 0.0 : num / base; }

// ---------------------------------------------------------------------------
// Derived per-layer metrics. Each is a difference of measured quantities
// and is labelled "derived" wherever it is printed.

/// Time a request spent neither being copied nor executed: queueing,
/// scheduling and future hand-off. Mean latency minus the server's copy
/// and execute time per request (all in µs).
inline double derived_wait_us(double mean_latency_us, double copy_us, double execute_us) {
  return mean_latency_us - copy_us - execute_us;
}

/// Dense-tile phase of the ASpT kernel: the whole kernel minus its
/// sparse-remainder phase timed on its own.
inline double derived_dense_phase_ms(double aspt_ms, double sparse_phase_ms) {
  return aspt_ms - sparse_phase_ms;
}

/// Serving-layer overhead of one panel-parallel SpMM over the bare
/// kernel: the runtime call minus the ASpT kernel and the row scatter.
inline double derived_execute_overhead_ms(double spmm_ms, double aspt_ms, double scatter_ms) {
  return spmm_ms - aspt_ms - scatter_ms;
}

/// Useful SpMM/SDDMM work: 2 flops (multiply + add) per nonzero per
/// dense column.
inline double spmm_flops(double nnz, double k) { return 2.0 * nnz * k; }

/// Bytes a row-wise SpMM must move at least once, computed from array
/// sizes (not measured): the CSR arrays, X and Y.
inline double computed_spmm_bytes(double rows, double cols, double nnz, double k,
                                  double index_bytes, double offset_bytes, double value_bytes) {
  const double csr = (rows + 1.0) * offset_bytes + nnz * (index_bytes + value_bytes);
  return csr + cols * k * value_bytes + rows * k * value_bytes;
}

}  // namespace perfbench
