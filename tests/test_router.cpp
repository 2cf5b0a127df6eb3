// Adaptive-execution router tests (src/router). The contracts under
// test mirror the CI gates the router lives under:
//   - the bandit is deterministic and counter-based: no RNG, no wall
//     clock, so a replay of the same decide/observe sequence makes the
//     same decisions — and it converges on a two-armed synthetic A/B;
//   - the table is bounded and Router::to_json() attributes latency per
//     route key;
//   - v4 plan files that carry the route records of older binaries,
//     retired arms included, still load and key the same table rows;
//   - routed Server execution stays bitwise identical to the sequential
//     core kernels, and every routed SpMM execution lands in the router's table,
//     across plan-cache eviction.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/fingerprint.hpp"
#include "core/pipeline.hpp"
#include "core/plan_io.hpp"
#include "plan_v4_fixture.hpp"
#include "router/router.hpp"
#include "runtime/runtime.hpp"
#include "synth/generators.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

using router::Decision;
using router::RouteChoice;
using router::Router;
using router::RouterConfig;
using router::Workload;

RouteChoice arm_default() { return RouteChoice{}; }

RouteChoice arm_spec_off() {
  RouteChoice c;
  c.spec_mode = 1;  // kernels::simd::SpecMode::off
  return c;
}

RouteChoice arm_sequential() {
  RouteChoice c;
  c.threads = 1;
  return c;
}

/// Synthetic cost model for the two-armed A/B: the default arm is slow,
/// spec-off is fast. Deterministic, so replays are exact.
double synthetic_us(const RouteChoice& c) { return c == arm_spec_off() ? 10.0 : 100.0; }

TEST(Router, KBucketGroupsNearbyWidths) {
  EXPECT_EQ(router::k_bucket(0), 0);
  EXPECT_EQ(router::k_bucket(1), 0);
  EXPECT_EQ(router::k_bucket(2), 1);
  EXPECT_EQ(router::k_bucket(3), 2);
  EXPECT_EQ(router::k_bucket(4), 2);
  EXPECT_EQ(router::k_bucket(32), 5);
  EXPECT_EQ(router::k_bucket(33), 6);
  // Nearby widths share a bucket; distant ones do not.
  EXPECT_EQ(router::k_bucket(31), router::k_bucket(32));
  EXPECT_NE(router::k_bucket(32), router::k_bucket(512));
}

TEST(Router, RouteKeyCarriesAllComponents) {
  const std::string key =
      router::route_key("fp123", Workload::spmm, 32, arm_spec_off());
  EXPECT_NE(key.find("fp123"), std::string::npos);
  EXPECT_NE(key.find(router::workload_name(Workload::spmm)), std::string::npos);
  EXPECT_NE(key.find("k5"), std::string::npos);
  EXPECT_NE(key.find(arm_spec_off().key()), std::string::npos);
}

TEST(Router, EmptyArmsOrDisabledBuildFallThrough) {
  Router r;
  const Decision d = r.decide("fp", Workload::spmm, 16, {});
  EXPECT_FALSE(d.routed);
  EXPECT_EQ(d.choice, arm_default());
}

TEST(Router, OnlineConvergesOnTwoArmedSyntheticAB) {
  RouterConfig cfg;
  cfg.min_samples = 2;
  cfg.explore_period = 16;
  Router r(cfg);
  const std::vector<RouteChoice> arms = {arm_default(), arm_spec_off()};

  int fast_picks = 0;
  constexpr int kRounds = 200;
  for (int i = 0; i < kRounds; ++i) {
    const Decision d = r.decide("fp", Workload::spmm, 32, arms);
    ASSERT_TRUE(d.routed);
    r.observe("fp", Workload::spmm, 32, d.choice, synthetic_us(d.choice));
    if (!d.explored && d.choice == arm_spec_off()) ++fast_picks;
  }
  // After the round-robin warmup every exploiting decision is the fast
  // arm; exploration probes are bounded by min_samples + period.
  EXPECT_GT(fast_picks, kRounds / 2);
  EXPECT_GT(r.explorations(), 0u);
  EXPECT_LT(r.explorations(), static_cast<std::uint64_t>(kRounds) / 2);
  EXPECT_EQ(r.decisions(), static_cast<std::uint64_t>(kRounds));

  // Converged: the next exploiting decision picks the fast arm.
  Decision next = r.decide("fp", Workload::spmm, 32, arms);
  while (next.explored) next = r.decide("fp", Workload::spmm, 32, arms);
  EXPECT_EQ(next.choice, arm_spec_off());
}

TEST(Router, OnlineReplayIsDeterministic) {
  const std::vector<RouteChoice> arms = {arm_default(), arm_spec_off(), arm_sequential()};
  const auto run = [&arms] {
    Router r;
    std::vector<std::string> picks;
    for (int i = 0; i < 100; ++i) {
      const Decision d = r.decide("fp", Workload::spmm, 16, arms);
      r.observe("fp", Workload::spmm, 16, d.choice, synthetic_us(d.choice));
      picks.push_back(d.choice.key());
    }
    return picks;
  };
  EXPECT_EQ(run(), run());
}

TEST(Router, SpmmArmsRespectPlanShape) {
  // Small matrices: default, spec-off and sequential.
  const auto small = Router::spmm_arms(64);
  const std::vector<RouteChoice> expected = {arm_default(), arm_spec_off(), arm_sequential()};
  EXPECT_EQ(small, expected);

  // Large matrices drop the sequential arm.
  const auto large = Router::spmm_arms(1 << 22);
  const std::vector<RouteChoice> pool_only = {arm_default(), arm_spec_off()};
  EXPECT_EQ(large, pool_only);
  EXPECT_EQ(Router::sddmm_arms(), pool_only);
}

// Plan files from binaries that persisted the router table carry v4
// route records. They still load: the fingerprint the router keys on
// survives the file, the records are skipped, and the router serving
// the loaded plan learns from its own measurements, exactly as it does
// for a plan built from the matrix.
TEST(Router, PlanFileV4CarriesRouteRecords) {
  const sparse::CsrMatrix m = synth::erdos_renyi(64, 64, 512, 42);
  core::ExecutionPlan plan = core::build_plan(m);
  plan.fingerprint = core::matrix_fingerprint(m);

  // The old table's verdict: spec-off fast, default slow.
  test::V4RouteRecord slow, fast;
  slow.k_bucket = fast.k_bucket = router::k_bucket(32);
  slow.total_us = 400.0;
  slow.min_us = slow.max_us = 100.0;
  fast.spec_mode = 1;
  std::stringstream file(test::v4_plan_with_records(plan, 2, {slow, fast}));
  const core::ExecutionPlan loaded = core::load_plan(file);
  EXPECT_EQ(file.peek(), std::char_traits<char>::eof()) << "records not skipped exactly";
  EXPECT_EQ(loaded.fingerprint, core::matrix_fingerprint(m));

  // Measured here, the default arm is the fast one; the router keyed on
  // the loaded fingerprint converges on it, decision for decision the
  // same as a router keyed on the freshly computed one.
  const auto run = [](const std::string& fp) {
    RouterConfig cfg;
    cfg.min_samples = 1;
    Router r(cfg);
    const std::vector<RouteChoice> arms = {arm_default(), arm_spec_off()};
    std::vector<Decision> picks;
    for (int i = 0; i < 32; ++i) {
      const Decision d = r.decide(fp, Workload::spmm, 32, arms);
      picks.push_back(d);
      r.observe(fp, Workload::spmm, 32, d.choice, d.choice == arm_default() ? 10.0 : 100.0);
    }
    return picks;
  };
  const std::vector<Decision> from_file = run(loaded.fingerprint);
  const std::vector<Decision> from_matrix = run(plan.fingerprint);
  ASSERT_EQ(from_file.size(), from_matrix.size());
  for (std::size_t i = 0; i < from_file.size(); ++i) {
    EXPECT_EQ(from_file[i].choice, from_matrix[i].choice) << "decision " << i;
    EXPECT_EQ(from_file[i].explored, from_matrix[i].explored) << "decision " << i;
  }
  // The last exploiting decision picks the arm measured fast here.
  auto last = from_file.rbegin();
  while (last != from_file.rend() && last->explored) ++last;
  ASSERT_NE(last, from_file.rend());
  EXPECT_EQ(last->choice, arm_default());
}

// Old v4 plan files also hold records of arms that are gone: the
// micro-GEMM arm (g1), spec-all (s3), the shard workload (3) and pinned
// shard strategies. Router table files are gone altogether. Such plan
// files load, their records are dropped with the rest, and no arm the
// router builds can name a retired one.
TEST(Router, RetiredArmsInOldTablesAndPlansAreDropped) {
  const sparse::CsrMatrix m = synth::erdos_renyi(64, 64, 512, 42);
  core::ExecutionPlan plan = core::build_plan(m);
  plan.fingerprint = core::matrix_fingerprint(m);

  test::V4RouteRecord live, micro_gemm, spec_all, shard, pinned;
  micro_gemm.micro_gemm = 1;
  spec_all.spec_mode = 3;
  shard.workload = 3;
  shard.shard_strategy = 2;
  pinned.spec_mode = 1;
  pinned.shard_strategy = 1;
  const std::vector<test::V4RouteRecord> records = {live, micro_gemm, spec_all, shard, pinned};
  std::stringstream file(test::v4_plan_with_records(plan, records.size(), records));
  const core::ExecutionPlan loaded = core::load_plan(file);
  EXPECT_EQ(file.peek(), std::char_traits<char>::eof()) << "records not skipped exactly";
  EXPECT_EQ(loaded.fingerprint, plan.fingerprint);
  sparse::DenseMatrix x(m.cols(), 8);
  sparse::fill_random(x, 3);
  sparse::DenseMatrix y_plan(m.rows(), 8), y_loaded(m.rows(), 8);
  core::run_spmm(plan, x, y_plan);
  core::run_spmm(loaded, x, y_loaded);
  EXPECT_DOUBLE_EQ(y_plan.max_abs_diff(y_loaded), 0.0);

  // Every arm the router can build encodes only the live fields: no
  // micro-GEMM or shard-strategy field, no spec-all mode.
  std::vector<RouteChoice> all = Router::spmm_arms(64);
  for (const auto& arms : {Router::sddmm_arms(), Router::spgemm_arms()}) {
    all.insert(all.end(), arms.begin(), arms.end());
  }
  for (const RouteChoice& c : all) {
    const std::string key = c.key();
    EXPECT_EQ(key.find('g'), std::string::npos) << key;
    EXPECT_EQ(key.find('d'), std::string::npos) << key;
    EXPECT_NE(c.spec_mode, 3u) << key;
  }
}

TEST(Router, FromEnvHonoursKnob) {
  const char* saved = std::getenv("RRSPMM_ROUTER");
  const std::string saved_val = saved ? saved : "";

  ::unsetenv("RRSPMM_ROUTER");
  EXPECT_EQ(router::from_env(), nullptr);
  ::setenv("RRSPMM_ROUTER", "off", 1);
  EXPECT_EQ(router::from_env(), nullptr);

  ::setenv("RRSPMM_ROUTER", "on", 1);
  EXPECT_NE(router::from_env(), nullptr);
  // The retired frozen mode, like any unknown value, warns and leaves the
  // router off.
  ::setenv("RRSPMM_ROUTER", "frozen", 1);
  EXPECT_EQ(router::from_env(), nullptr);

  if (saved) {
    ::setenv("RRSPMM_ROUTER", saved_val.c_str(), 1);
  } else {
    ::unsetenv("RRSPMM_ROUTER");
  }
}

/// The to_json() entry prefix of one arm: its quoted route key, then the
/// count field's name.
std::string json_key(const std::string& fp, Workload w, index_t k, const RouteChoice& c) {
  std::string s = "\"";
  s += router::route_key(fp, w, k, c);
  s += "\":{\"count\":";
  return s;
}

/// json_key() followed by the arm's expected count.
std::string json_entry(const std::string& fp, Workload w, index_t k, const RouteChoice& c,
                       std::uint64_t count) {
  std::string s = json_key(fp, w, k, c);
  s += std::to_string(count);
  s += ',';
  return s;
}

TEST(Router, ToJsonAttributesLatencyPerRouteKey) {
  Router r;
  r.observe("fp", Workload::spmm, 32, arm_default(), 10.0);
  r.observe("fp", Workload::spmm, 32, arm_default(), 30.0);
  r.observe("fp", Workload::spmm, 32, arm_spec_off(), 5.0);
  r.observe("fp", Workload::sddmm, 0, arm_default(), 7.0);
  EXPECT_EQ(r.keys(), 2u);

  const std::string json = r.to_json();
  EXPECT_NE(json.find(json_entry("fp", Workload::spmm, 32, arm_default(), 2) +
                      "\"total_us\":40,\"mean_us\":20,\"min_us\":10,\"max_us\":30}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find(json_entry("fp", Workload::spmm, 32, arm_spec_off(), 1)), std::string::npos)
      << json;
  EXPECT_NE(json.find(json_entry("fp", Workload::sddmm, 0, arm_default(), 1)),
            std::string::npos)
      << json;
}

TEST(Router, BoundsItsKeySet) {
  RouterConfig cfg;
  cfg.max_keys = 4;
  Router r(cfg);
  const std::vector<RouteChoice> arms = {arm_default(), arm_spec_off()};
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(r.decide("fp" + std::to_string(i), Workload::spmm, 32, arms).routed);
  }
  // Past the bound a new key runs the default arm unrouted, and its
  // observations are dropped rather than allocated.
  const Decision d = r.decide("fp-new", Workload::spmm, 32, arms);
  EXPECT_FALSE(d.routed);
  EXPECT_EQ(d.choice, arm_default());
  r.observe("fp-new", Workload::spmm, 32, arm_default(), 1.0);
  EXPECT_EQ(r.keys(), 4u);
  EXPECT_EQ(r.decisions(), 4u);
  EXPECT_EQ(r.to_json().find("fp-new"), std::string::npos);
  // Known keys keep routing.
  EXPECT_TRUE(r.decide("fp0", Workload::spmm, 32, arms).routed);
  // The fallback is counted, once per unrouted decision, and only then.
  EXPECT_TRUE(d.table_full);
  EXPECT_EQ(r.table_full_fallbacks(), 1u);
  EXPECT_FALSE(r.decide("fp-other", Workload::spmm, 32, arms).routed);
  EXPECT_EQ(r.table_full_fallbacks(), 2u);
  EXPECT_NE(r.to_json().find("\"table_full\":2"), std::string::npos) << r.to_json();
  EXPECT_FALSE(r.decide("fp0", Workload::spmm, 32, {}).table_full);
  EXPECT_EQ(r.table_full_fallbacks(), 2u);
}

// --- Server integration ----------------------------------------------

TEST(ServerRouter, RoutedExecutionIsBitwiseIdenticalAndAttributed) {
  RouterConfig cfg;
  cfg.min_samples = 1;
  auto router_ptr = std::make_shared<Router>(cfg);

  runtime::ServerConfig scfg;
  scfg.threads = 2;
  scfg.router = router_ptr;
  runtime::Server server(scfg);

  const sparse::CsrMatrix m = synth::erdos_renyi(96, 96, 1024, 99);
  server.register_matrix("m", m);
  const auto plan = server.warm("m");
  ASSERT_NE(plan, nullptr);

  // Sequential reference through the same plan.
  sparse::DenseMatrix x(m.cols(), 16);
  sparse::fill_random(x, 3);
  sparse::DenseMatrix y_ref(m.rows(), 16);
  core::run_spmm(*plan, x, y_ref);

  // Enough batches to cross the router's warmup and hit several arms —
  // first through the view API (borrowed requests, which every arm,
  // including the sequential one, may serve), then the owned API.
  const auto expect_ref = [&](const sparse::DenseMatrix& y, const std::string& what) {
    ASSERT_EQ(y.rows(), y_ref.rows());
    ASSERT_EQ(y.cols(), y_ref.cols());
    for (index_t r = 0; r < y.rows(); ++r) {
      for (index_t c = 0; c < y.cols(); ++c) {
        ASSERT_EQ(y(r, c), y_ref(r, c)) << what << " at (" << r << "," << c << ")";
      }
    }
  };
  sparse::DenseMatrix xa = sparse::DenseMatrix::aligned(m.cols(), 16);
  for (index_t r = 0; r < m.cols(); ++r) {
    for (index_t c = 0; c < 16; ++c) xa(r, c) = x(r, c);
  }
  for (int i = 0; i < 12; ++i) {
    sparse::DenseMatrix y = sparse::DenseMatrix::aligned(m.rows(), 16);
    server.submit("m", sparse::DenseView(xa), sparse::DenseMutView(y)).get();
    expect_ref(y, "view batch " + std::to_string(i));
  }
  EXPECT_EQ(server.metrics().zero_copy_fallbacks.load(), 0u);
  const std::string fp = core::matrix_fingerprint(m);
  // An arm appears in the table once it has an observation.
  EXPECT_NE(router_ptr->to_json().find(json_key(fp, Workload::spmm, 16, arm_sequential())),
            std::string::npos)
      << "the sequential arm never served a borrowed request";

  for (int i = 0; i < 12; ++i) {
    sparse::DenseMatrix xi = x;
    expect_ref(server.submit("m", std::move(xi)).get(), "batch " + std::to_string(i));
  }
  server.wait_idle();

  // Closed loop: every decision the server counted was the router's, and
  // each routed SpMM batch landed in the router's table under this
  // matrix's key.
  EXPECT_GT(server.metrics().router_decisions.load(), 0u);
  EXPECT_EQ(server.metrics().router_decisions.load(), router_ptr->decisions());
  const std::string table = router_ptr->to_json();
  std::uint64_t spmm_batches = 0;
  for (const RouteChoice& c : Router::spmm_arms(m.rows())) {
    const std::string key = json_key(fp, Workload::spmm, 16, c);
    const std::size_t at = table.find(key);
    if (at != std::string::npos) spmm_batches += std::stoull(table.substr(at + key.size()));
  }
  EXPECT_EQ(spmm_batches, server.metrics().batches_executed.load()) << table;
  EXPECT_NE(server.metrics_json().find("\"router_decisions\""), std::string::npos);
  EXPECT_NE(server.metrics_json().find("\"router_table_full\":0"), std::string::npos);
}

TEST(ServerRouter, TableFullFallbacksAreCounted) {
  // One key fits: the SDDMM decision takes it, so every SpMM decision
  // after it runs the default arm unrouted — and is counted.
  RouterConfig cfg;
  cfg.max_keys = 1;
  auto router_ptr = std::make_shared<Router>(cfg);
  runtime::ServerConfig scfg;
  scfg.threads = 2;
  scfg.router = router_ptr;
  runtime::Server server(scfg);
  const sparse::CsrMatrix m = synth::erdos_renyi(64, 64, 512, 5);
  server.register_matrix("m", m);
  sparse::DenseMatrix x(m.cols(), 8), y(m.rows(), 8);
  sparse::fill_random(x, 1);
  sparse::fill_random(y, 2);
  server.submit_sddmm("m", x, y).get();
  for (int i = 0; i < 3; ++i) server.submit("m", x).get();
  server.wait_idle();
  EXPECT_EQ(server.metrics().router_table_full.load(), 3u);
  EXPECT_EQ(server.metrics().router_table_full.load(), router_ptr->table_full_fallbacks());
  EXPECT_EQ(router_ptr->keys(), 1u);
}

TEST(ServerRouter, DecisionsSurvivePlanCacheEvictionAndReload) {
  // The router keys on the matrix fingerprint, not on plan residency, so
  // evicting and rebuilding the plan continues the same table row.
  const sparse::CsrMatrix a = synth::erdos_renyi(80, 80, 640, 7);
  const sparse::CsrMatrix b = synth::erdos_renyi(80, 80, 640, 8);
  const sparse::CsrMatrix c = synth::erdos_renyi(80, 80, 640, 9);
  const std::string fp_a = core::matrix_fingerprint(a);

  RouterConfig cfg;
  cfg.min_samples = 1;
  auto router_ptr = std::make_shared<Router>(cfg);
  runtime::ServerConfig scfg;
  scfg.threads = 2;
  scfg.plan_cache_capacity = 2;  // three matrices: A is evicted below
  scfg.router = router_ptr;
  runtime::Server server(scfg);
  server.register_matrix("a", a);
  server.register_matrix("b", b);
  server.register_matrix("c", c);

  const auto run_a = [&] {
    sparse::DenseMatrix x(a.cols(), 16);
    sparse::fill_random(x, 5);
    return server.submit("a", std::move(x)).get();
  };
  const sparse::DenseMatrix before = run_a();
  server.wait_idle();
  const std::uint64_t evictions_before = server.metrics().cache_evictions.load();
  server.warm("b");
  server.warm("c");  // capacity 2: A's plan is gone now
  EXPECT_GT(server.metrics().cache_evictions.load(), evictions_before);
  const sparse::DenseMatrix after = run_a();  // rebuilds A's plan
  server.wait_idle();

  for (index_t r = 0; r < before.rows(); ++r) {
    for (index_t cc = 0; cc < before.cols(); ++cc) ASSERT_EQ(before(r, cc), after(r, cc));
  }
  // The fill phase went on across the eviction: the first request sampled
  // the default arm, the second the next arm of the same key, rather
  // than a fresh key sampling the default again.
  const std::string table = router_ptr->to_json();
  EXPECT_NE(table.find(json_entry(fp_a, Workload::spmm, 16, arm_default(), 1)),
            std::string::npos)
      << table;
  EXPECT_NE(table.find(json_entry(fp_a, Workload::spmm, 16, arm_spec_off(), 1)),
            std::string::npos)
      << table;
}

}  // namespace
}  // namespace rrspmm
