// Serving-runtime throughput bench: requests/sec and tail latency of the
// runtime::Server as a function of worker count, for a warm-cache mix
// (every plan pre-built) and a cold-cache mix (plan cache smaller than
// the working set, so builds and evictions happen on the request path).
//
// Also gates the zero-copy serving data path: on the large-K family
// (K=128..256, ~2 nnz/row, where the submit/result copies rival the
// kernel itself) the borrowed-view path must beat the owned-copy path by
// >=1.15x throughput OR >=20% p99 reduction, and every configuration
// (zero-copy on/off, 1..4 threads, owned vs view submits)
// must produce bitwise-identical results. Violations print FAIL and make
// the binary exit nonzero, so CI's bench-smoke job catches regressions.
//
// Prints fixed-width tables and writes BENCH_serving.json next to the
// binary's working directory.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "harness/render.hpp"
#include "runtime/runtime.hpp"
#include "synth/corpus.hpp"
#include "synth/generators.hpp"

namespace rrspmm {
namespace {

using Clock = std::chrono::steady_clock;

struct MixResult {
  unsigned threads = 0;
  std::string mix;
  std::size_t requests = 0;
  double req_per_s = 0.0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  std::uint64_t plans_built = 0;
};

MixResult run_mix(unsigned threads, bool warm, const std::vector<synth::CorpusEntry>& corpus,
                  std::size_t n_requests, index_t k) {
  runtime::ServerConfig cfg;
  cfg.threads = threads;
  // Cold mix: capacity below the matrix count forces evictions and plan
  // rebuilds on the request path; warm mix holds every plan resident.
  cfg.plan_cache_capacity = warm ? 2 * corpus.size() : 2;
  runtime::Server server(cfg);
  for (const auto& entry : corpus) server.register_matrix(entry.name, entry.matrix);
  if (warm) {
    for (const auto& entry : corpus) server.warm(entry.name);
  }

  std::vector<sparse::DenseMatrix> xs;
  xs.reserve(n_requests);
  for (std::size_t r = 0; r < n_requests; ++r) {
    const auto& m = corpus[r % corpus.size()].matrix;
    sparse::DenseMatrix x(m.cols(), k);
    sparse::fill_random(x, static_cast<std::uint64_t>(r) + 1);
    xs.push_back(std::move(x));
  }

  const auto t0 = Clock::now();
  std::vector<std::future<sparse::DenseMatrix>> futs;
  futs.reserve(n_requests);
  for (std::size_t r = 0; r < n_requests; ++r) {
    futs.push_back(server.submit(corpus[r % corpus.size()].name, std::move(xs[r])));
  }
  for (auto& f : futs) f.get();
  server.wait_idle();
  const double elapsed = std::chrono::duration<double>(Clock::now() - t0).count();

  const auto& m = server.metrics();
  MixResult res;
  res.threads = threads;
  res.mix = warm ? "warm" : "cold";
  res.requests = n_requests;
  res.req_per_s = static_cast<double>(n_requests) / elapsed;
  res.p50_s = m.latency.quantile(0.50);
  res.p95_s = m.latency.quantile(0.95);
  res.plans_built = m.plans_built.load();
  return res;
}

// ---------------------------------------------------------------------------
// Zero-copy gate: large-K, low-nnz/row family through the view API with
// zero-copy on vs off. Requests run one at a time so throughput reflects
// per-request cost (submit copy + execute + result copy) directly.

struct ZeroCopyResult {
  index_t k = 0;
  bool zero_copy = false;
  std::size_t requests = 0;
  double req_per_s = 0.0;
  double p99_s = 0.0;
  std::uint64_t submit_copy_us = 0;
  std::uint64_t execute_us = 0;
  std::uint64_t zc_requests = 0;
  std::uint64_t zc_fallbacks = 0;
};

ZeroCopyResult run_zero_copy(bool zero_copy, const sparse::CsrMatrix& m, index_t k,
                             std::size_t n_requests) {
  runtime::ServerConfig cfg;
  cfg.zero_copy = zero_copy;
  runtime::Server server(cfg);
  server.register_matrix("zc", m);
  server.warm("zc");

  // Caller-owned aligned buffers: eligible for the borrow, so on/off
  // differ only in whether the server copies through them.
  std::vector<sparse::DenseMatrix> xs, ys;
  xs.reserve(n_requests);
  ys.reserve(n_requests);
  for (std::size_t r = 0; r < n_requests; ++r) {
    xs.push_back(sparse::DenseMatrix::aligned(m.cols(), k));
    sparse::fill_random(xs.back(), static_cast<std::uint64_t>(r) + 1);
    ys.push_back(sparse::DenseMatrix::aligned(m.rows(), k));
  }

  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < n_requests; ++r) {
    server.submit("zc", sparse::DenseView(xs[r]), sparse::DenseMutView(ys[r])).get();
  }
  server.wait_idle();
  const double elapsed = std::chrono::duration<double>(Clock::now() - t0).count();

  const auto& met = server.metrics();
  ZeroCopyResult res;
  res.k = k;
  res.zero_copy = zero_copy;
  res.requests = n_requests;
  res.req_per_s = static_cast<double>(n_requests) / elapsed;
  res.p99_s = met.latency.quantile(0.99);
  res.submit_copy_us = met.submit_copy_us.load();
  res.execute_us = met.execute_us.load();
  res.zc_requests = met.zero_copy_requests.load();
  res.zc_fallbacks = met.zero_copy_fallbacks.load();
  return res;
}

// ---------------------------------------------------------------------------
// Bitwise-equality sweep: every serving configuration must reproduce the
// reference bits exactly. The standing contract says zero-copy and
// thread count are pure data-path/perf knobs.

struct BitwiseConfig {
  const char* name;
  bool zero_copy;
  unsigned threads;
  bool owned;  ///< submit owning DenseMatrix instead of borrowed views
};

std::vector<sparse::DenseMatrix> run_bitwise_config(const BitwiseConfig& c,
                                                    const sparse::CsrMatrix& m, index_t k,
                                                    std::size_t n_requests) {
  runtime::ServerConfig cfg;
  cfg.threads = c.threads;
  cfg.zero_copy = c.zero_copy;
  runtime::Server server(cfg);
  server.register_matrix("bw", m);
  server.warm("bw");

  std::vector<sparse::DenseMatrix> ys;
  ys.reserve(n_requests);
  for (std::size_t r = 0; r < n_requests; ++r) {
    sparse::DenseMatrix x = sparse::DenseMatrix::aligned(m.cols(), k);
    sparse::fill_random(x, static_cast<std::uint64_t>(r) + 101);
    if (c.owned) {
      ys.push_back(server.submit("bw", std::move(x)).get());
    } else {
      ys.push_back(sparse::DenseMatrix::aligned(m.rows(), k));
      server.submit("bw", sparse::DenseView(x), sparse::DenseMutView(ys.back())).get();
    }
  }
  server.wait_idle();
  return ys;
}

bool bitwise_equal(const sparse::DenseMatrix& a, const sparse::DenseMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (index_t i = 0; i < a.rows(); ++i) {
    if (std::memcmp(a.row(i).data(), b.row(i).data(),
                    static_cast<std::size_t>(a.cols()) * sizeof(value_t)) != 0) {
      return false;
    }
  }
  return true;
}

std::string to_json(const std::vector<MixResult>& results, const std::vector<ZeroCopyResult>& zc,
                    bool bitwise_ok) {
  bench::JsonWriter js;
  js.obj_begin().field("bench", "serving_throughput").key("results").arr_begin();
  for (const MixResult& r : results) {
    js.obj_begin()
        .field("threads", r.threads)
        .field("mix", r.mix)
        .field("requests", r.requests)
        .field("req_per_s", r.req_per_s)
        .field("latency_p50_s", r.p50_s)
        .field("latency_p95_s", r.p95_s)
        .field("plans_built", r.plans_built)
        .obj_end();
  }
  js.arr_end().key("zero_copy").arr_begin();
  for (const ZeroCopyResult& r : zc) {
    js.obj_begin()
        .field("k", r.k)
        .field("zero_copy", r.zero_copy)
        .field("requests", r.requests)
        .field("req_per_s", r.req_per_s)
        .field("latency_p99_s", r.p99_s)
        .field("submit_copy_us", r.submit_copy_us)
        .field("execute_us", r.execute_us)
        .field("zero_copy_requests", r.zc_requests)
        .field("zero_copy_fallbacks", r.zc_fallbacks)
        .obj_end();
  }
  js.arr_end().field("bitwise_ok", bitwise_ok).obj_end();
  return js.str();
}

}  // namespace
}  // namespace rrspmm

int main() {
  using namespace rrspmm;

  const auto corpus = synth::build_test_corpus();
  constexpr std::size_t kRequests = 64;
  constexpr index_t kK = 16;

  std::printf("== serving throughput: runtime::Server, %zu matrices, %zu requests, K=%d ==\n",
              corpus.size(), kRequests, kK);

  std::vector<MixResult> results;
  for (const bool warm : {true, false}) {
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      results.push_back(run_mix(threads, warm, corpus, kRequests, kK));
      const MixResult& r = results.back();
      std::fprintf(stderr, "  %s x%u: %.0f req/s\n", r.mix.c_str(), r.threads, r.req_per_s);
    }
  }

  std::vector<std::vector<std::string>> rows;
  for (const MixResult& r : results) {
    rows.push_back({r.mix, std::to_string(r.threads), std::to_string(r.requests),
                    harness::fmt(r.req_per_s, 1), harness::fmt(r.p50_s * 1e3, 3),
                    harness::fmt(r.p95_s * 1e3, 3), std::to_string(r.plans_built)});
  }
  std::printf("%s\n",
              harness::render_table({"mix", "threads", "requests", "req/s", "p50_ms", "p95_ms",
                                     "plans_built"},
                                    rows)
                  .c_str());

  // Zero-copy gate: the family where the copies matter most — large K,
  // ~2 nnz/row, so the dense traffic through x and y rivals the kernel.
  std::printf("== zero-copy gate: 8192x8192 @ 2 nnz/row, view submits ==\n");
  const sparse::CsrMatrix zc_matrix = synth::erdos_renyi(8192, 8192, 16384, 7);
  constexpr std::size_t kZcRequests = 12;
  std::vector<ZeroCopyResult> zc_results;
  int failures = 0;
  for (const index_t k : {index_t{128}, index_t{256}}) {
    const ZeroCopyResult off = run_zero_copy(false, zc_matrix, k, kZcRequests);
    const ZeroCopyResult on = run_zero_copy(true, zc_matrix, k, kZcRequests);
    zc_results.push_back(off);
    zc_results.push_back(on);
    const double speedup = off.req_per_s > 0.0 ? on.req_per_s / off.req_per_s : 0.0;
    const double p99_cut = off.p99_s > 0.0 ? 1.0 - on.p99_s / off.p99_s : 0.0;
    const bool pass = speedup >= 1.15 || p99_cut >= 0.20;
    std::printf("  K=%-3d  %.2fx throughput, %+.0f%% p99  [%s]\n", k, speedup, -p99_cut * 100.0,
                pass ? "ok" : "FAIL");
    if (!pass) {
      std::fprintf(stderr,
                   "FAIL: zero-copy gate K=%d: %.2fx throughput (< 1.15x) and %.0f%% p99 "
                   "reduction (< 20%%)\n",
                   k, speedup, p99_cut * 100.0);
      ++failures;
    }
    if (on.zc_fallbacks != 0 || on.zc_requests != kZcRequests) {
      std::fprintf(stderr, "FAIL: zero-copy K=%d: %llu/%llu requests fell back to the copy path\n",
                   k, static_cast<unsigned long long>(on.zc_fallbacks),
                   static_cast<unsigned long long>(on.zc_requests));
      ++failures;
    }
  }

  std::vector<std::vector<std::string>> zc_rows;
  for (const ZeroCopyResult& r : zc_results) {
    zc_rows.push_back({std::to_string(r.k), r.zero_copy ? "on" : "off",
                       harness::fmt(r.req_per_s, 1), harness::fmt(r.p99_s * 1e3, 3),
                       std::to_string(r.submit_copy_us), std::to_string(r.execute_us),
                       std::to_string(r.zc_fallbacks)});
  }
  std::printf("%s\n", harness::render_table({"K", "zero_copy", "req/s", "p99_ms", "submit_copy_us",
                                             "execute_us", "fallbacks"},
                                            zc_rows)
                          .c_str());

  // Bitwise sweep: one reference run, every other config must match it
  // bit for bit — zero-copy, threads, owned vs view submits.
  std::printf("== bitwise-equality sweep ==\n");
  const sparse::CsrMatrix bw_matrix = synth::erdos_renyi(2048, 2048, 8192, 11);
  constexpr index_t kBwK = 128;
  constexpr std::size_t kBwRequests = 4;
  const BitwiseConfig bw_ref{"ref zc=on t=1 view", true, 1, false};
  const BitwiseConfig bw_configs[] = {
      {"zc=off t=1 view", false, 1, false},
      {"zc=on  t=4 view", true, 4, false},
      {"zc=off t=4 view", false, 4, false},
      {"zc=on  t=4 owned", true, 4, true},
  };
  const auto ref = run_bitwise_config(bw_ref, bw_matrix, kBwK, kBwRequests);
  bool bitwise_ok = true;
  for (const BitwiseConfig& c : bw_configs) {
    const auto got = run_bitwise_config(c, bw_matrix, kBwK, kBwRequests);
    bool same = got.size() == ref.size();
    for (std::size_t i = 0; same && i < ref.size(); ++i) same = bitwise_equal(ref[i], got[i]);
    std::printf("  %-28s %s\n", c.name, same ? "bitwise-equal" : "FAIL");
    if (!same) {
      std::fprintf(stderr, "FAIL: bitwise mismatch vs reference for config '%s'\n", c.name);
      bitwise_ok = false;
      ++failures;
    }
  }

  bench::write_bench_json("BENCH_serving.json", to_json(results, zc_results, bitwise_ok));
  if (failures != 0) {
    std::fprintf(stderr, "%d serving gate failure(s)\n", failures);
    return 1;
  }
  return 0;
}
