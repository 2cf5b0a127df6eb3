// Self-test of the benchmark's own percentile, derived-metric, trace and
// JSON code. Built and run before every benchmark run (run.py) and
// registered with the benchmark package's ctest. Exits nonzero if any
// check fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "result.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest: FAILED line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b)); }

void test_quantiles() {
  using perfbench::quantile;
  CHECK(near(quantile({5.0}, 0.5), 5.0));
  CHECK(near(quantile({5.0}, 0.99), 5.0));
  // Linear interpolation between order statistics: position q * (n - 1).
  CHECK(near(quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5));
  CHECK(near(quantile({1.0, 2.0, 3.0, 4.0}, 0.0), 1.0));
  CHECK(near(quantile({1.0, 2.0, 3.0, 4.0}, 1.0), 4.0));
  CHECK(near(quantile({1.0, 2.0, 3.0, 4.0}, 0.25), 1.75));
  CHECK(near(perfbench::median({3.0, 1.0, 2.0}), 2.0));
  bool threw = false;
  try {
    quantile({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);

  // 1..1000: p99 sits at position 989.01, so 10 samples (991..1000) lie
  // strictly beyond it.
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  const perfbench::LatencySummary s = perfbench::summarize(v);
  CHECK(s.count == 1000);
  CHECK(near(s.mean, 500.5));
  CHECK(near(s.p50, 500.5));
  CHECK(near(s.p95, 950.05));
  CHECK(near(s.p99, 990.01));
  CHECK(s.beyond_p99 == 10);
  // Exact samples, not bucket edges: values between powers of two survive.
  const perfbench::LatencySummary t = perfbench::summarize({0.070, 0.070, 0.070});
  CHECK(near(t.p50, 0.070) && near(t.p99, 0.070) && t.beyond_p99 == 0);
  CHECK(perfbench::summarize({}).count == 0);
}

void test_windows() {
  // 2.5 s tiles into two 1.25 s windows; the completion at exactly 2.5 s
  // falls into the last one.
  const auto r = perfbench::window_rates({0.1, 1.0, 1.3, 2.5}, {1.0, 2.0, 4.0, 8.0}, 2.5, 1.0);
  CHECK(r.size() == 2);
  CHECK(near(r[0], 3.0 / 1.25) && near(r[1], 12.0 / 1.25));
  CHECK(perfbench::window_rates({0.1}, {5.0}, 0.5, 1.0).size() == 1);
  CHECK(near(perfbench::window_rates({0.1}, {5.0}, 0.5, 1.0)[0], 10.0));
  CHECK(perfbench::window_rates({}, {}, 0.0, 1.0).empty());
}

void test_derived() {
  CHECK(near(perfbench::derived_wait_us(100.0, 10.0, 60.0), 30.0));
  CHECK(near(perfbench::derived_dense_phase_ms(3.0, 1.25), 1.75));
  CHECK(near(perfbench::derived_execute_overhead_ms(5.0, 3.0, 0.5), 1.5));
  CHECK(near(perfbench::ratio(3.0, 4.0), 0.75));
  CHECK(perfbench::ratio(1.0, 0.0) == 0.0);
  CHECK(near(perfbench::failed_fraction(1, 4), 0.25));
  CHECK(perfbench::failed_fraction(0, 0) == 0.0);
  CHECK(near(perfbench::spmm_flops(100.0, 64.0), 12800.0));
  // rows=2, cols=3, nnz=4, K=8, 4-byte indices/values, 8-byte offsets:
  // CSR 3*8 + 4*(4+4) = 56, X 3*8*4 = 96, Y 2*8*4 = 64.
  CHECK(near(perfbench::computed_spmm_bytes(2, 3, 4, 8, 4, 8, 4), 216.0));
}

void test_self_time() {
  using perfbench::Span;
  // root [0,100) with children [10,30) and [20,50) (overlapping) and
  // [90,120) (clipped to the parent): covered 40 + 10 = 50, self 50.
  std::vector<Span> spans = {
      {"root", "t", 0, 100, 1, 0, -1, 1},
      {"child", "t", 10, 30, 2, 1, -1, 1},
      {"child", "t", 20, 50, 3, 1, -1, 1},
      {"tail", "t", 90, 120, 4, 1, -1, 1},
  };
  const auto rows = perfbench::self_times(spans);
  CHECK(rows.size() == 3);
  CHECK(rows[0].name == "root" && rows[0].count == 1);
  CHECK(near(rows[0].total_ms, 0.1) && near(rows[0].self_ms, 0.05));
  CHECK(rows[1].name == "child" && rows[1].count == 2 && near(rows[1].total_ms, 0.05));
  CHECK(near(rows[2].self_ms, 0.03));
  CHECK(near(perfbench::covered_us({}, 0, 10), 0.0));
  CHECK(near(perfbench::covered_us({{0, 5}, {5, 10}}, 0, 10), 10.0));

  perfbench::Tracer off(false);
  CHECK(off.add("x", "t", 0, 1) == 0 && off.spans().empty());
  perfbench::Tracer on(true);
  const auto a = on.open("a", "t");
  const auto b = on.add("b", "t", 1, 2, a, 7, 3);
  on.close(a);
  CHECK(a == 1 && b == 2 && on.spans().size() == 2 && on.spans()[1].parent == a);
  CHECK(on.spans()[0].t1_us >= on.spans()[0].t0_us);
}

void test_json() {
  const std::string line = perfbench::result_line(
      true, 12, 0, {{"latency_ms", 1.5, "ms"}, {"setup_s", 0.25, "s"}});
  CHECK(line == "{\"correct\":true,\"attempted\":12,\"failed\":0,\"metrics\":{\"latency_ms\":"
                "{\"value\":1.5,\"unit\":\"ms\"},\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}");
  CHECK(perfbench::result_line(false, 1, 1, {}) ==
        "{\"correct\":false,\"attempted\":1,\"failed\":1,\"metrics\":{}}");
  bool threw = false;
  try {
    perfbench::result_line(true, 1, 0, {{"x", std::numeric_limits<double>::quiet_NaN(), "ms"}});
  } catch (const std::domain_error&) {
    threw = true;
  }
  CHECK(threw);

  const std::string trace = perfbench::chrome_trace_json(
      {{"io.ingest", "io", 1.5, 4.0, 1, 0, -1, 1}, {"request.spgemm", "serve", 5, 9, 2, 0, 3, 2}});
  CHECK(trace ==
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
        "{\"name\":\"io.ingest\",\"cat\":\"io\",\"ph\":\"X\",\"ts\":1.5,\"dur\":2.5,\"pid\":1,"
        "\"tid\":1,\"args\":{\"id\":1,\"parent\":0,\"req\":-1}},"
        "{\"name\":\"request.spgemm\",\"cat\":\"serve\",\"ph\":\"X\",\"ts\":5,\"dur\":4,\"pid\":1,"
        "\"tid\":2,\"args\":{\"id\":2,\"parent\":0,\"req\":3}}]}");
}

}  // namespace

int main() {
  test_quantiles();
  test_windows();
  test_derived();
  test_self_time();
  test_json();
  if (g_failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("selftest: ok\n");
  return 0;
}
