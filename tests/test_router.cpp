// Adaptive-execution router tests (src/router). The contracts under
// test mirror the CI gates the router lives under:
//   - frozen mode is a pure function of the loaded table: identical
//     decisions across thread counts, process restarts (table round
//     trip), and plan-cache eviction/reload;
//   - online mode is a deterministic counter-based bandit: no RNG, no
//     wall clock, so a replay of the same decide/observe sequence makes
//     the same decisions — and it converges on a two-armed synthetic A/B;
//   - seeding works end to end: BENCH_*.json calibration priors steer
//     unseen fingerprints, and learned entries survive the plan-file v4
//     RouteRecord round trip (Server::warm re-imports them);
//   - routed Server execution stays bitwise identical to the sequential
//     core kernels, and every routed batch lands in the per-route
//     Metrics attribution table.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/fingerprint.hpp"
#include "core/pipeline.hpp"
#include "core/plan_io.hpp"
#include "router/calibration.hpp"
#include "router/router.hpp"
#include "runtime/runtime.hpp"
#include "synth/corpus.hpp"
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

TEST(Router, KeyParseRoundTrip) {
  std::vector<RouteChoice> choices = {arm_default(), arm_spec_off(), arm_sequential()};
  RouteChoice fancy;
  fancy.spec_mode = 2;
  fancy.threads = 1;
  fancy.batch = 4;
  fancy.accumulator = 1;
  choices.push_back(fancy);
  for (const RouteChoice& c : choices) {
    RouteChoice back;
    ASSERT_TRUE(RouteChoice::parse(c.key(), back)) << c.key();
    EXPECT_EQ(c, back) << c.key();
  }
  RouteChoice out;
  EXPECT_FALSE(RouteChoice::parse("", out));
  EXPECT_FALSE(RouteChoice::parse("nonsense", out));
  EXPECT_FALSE(RouteChoice::parse("s0g0d255t0b0", out));  // truncated
  // Retired arms: micro-GEMM (g1), spec-all (s3), pinned shard strategy.
  EXPECT_FALSE(RouteChoice::parse("s0g1d255t0b0a255", out));
  EXPECT_FALSE(RouteChoice::parse("s3g0d255t0b0a255", out));
  EXPECT_FALSE(RouteChoice::parse("s0g0d2t0b0a255", out));
}

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

  // Converged: the non-exploring steady state picks the fast arm.
  const RouteChoice best = r.preferred("fp", Workload::spmm, arm_default());
  EXPECT_EQ(best, arm_spec_off());
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

TEST(Router, FrozenTableIsDeterministicAcrossThreadsAndRestarts) {
  // Train online, then freeze the learned table.
  Router trainer;
  const std::vector<RouteChoice> arms = {arm_default(), arm_spec_off()};
  for (int i = 0; i < 64; ++i) {
    const Decision d = trainer.decide("fp", Workload::spmm, 32, arms);
    trainer.observe("fp", Workload::spmm, 32, d.choice, synthetic_us(d.choice));
  }
  std::ostringstream table;
  trainer.save_table(table);

  // "Restart": two independent frozen routers loading the same table
  // must agree with each other on every decision, and never explore.
  RouterConfig frozen_cfg;
  frozen_cfg.frozen = true;
  Router a(frozen_cfg), b(frozen_cfg);
  {
    std::istringstream in_a(table.str()), in_b(table.str());
    EXPECT_GT(a.load_table(in_a), 0u);
    EXPECT_GT(b.load_table(in_b), 0u);
  }

  // Concurrent deciders on the same frozen router (the "across thread
  // counts" contract): every thread sees the same pure-table argmin.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::vector<std::string>> picks(kThreads);
  {
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          picks[static_cast<std::size_t>(t)].push_back(
              a.decide("fp", Workload::spmm, 32, arms).choice.key());
        }
      });
    }
    for (auto& t : ts) t.join();
  }
  const std::string expected = arm_spec_off().key();
  for (const auto& thread_picks : picks) {
    for (const auto& k : thread_picks) EXPECT_EQ(k, expected);
  }
  EXPECT_EQ(a.explorations(), 0u);

  // The restarted replica agrees.
  EXPECT_EQ(b.decide("fp", Workload::spmm, 32, arms).choice.key(), expected);

  // Frozen observe is a no-op: the table (and so the decision) is the
  // contract even after contradictory measurements.
  a.observe("fp", Workload::spmm, 32, arm_default(), 0.001);
  EXPECT_EQ(a.decide("fp", Workload::spmm, 32, arms).choice.key(), expected);
}

TEST(Router, TableRoundTripPreservesStats) {
  Router r;
  r.observe("fp", Workload::spmm, 32, arm_spec_off(), 10.0);
  r.observe("fp", Workload::spmm, 32, arm_spec_off(), 30.0);
  r.observe("fp", Workload::coalesce, 0, arm_default(), 5.0);

  std::ostringstream out;
  r.save_table(out);
  Router back;
  std::istringstream in(out.str());
  EXPECT_EQ(back.load_table(in), 2u);
  EXPECT_EQ(back.keys(), r.keys());

  const auto records = back.export_records("fp");
  ASSERT_EQ(records.size(), 2u);
  for (const auto& rec : records) {
    if (rec.workload == static_cast<std::uint8_t>(Workload::spmm)) {
      EXPECT_EQ(rec.count, 2u);
      EXPECT_DOUBLE_EQ(rec.total_us, 40.0);
      EXPECT_DOUBLE_EQ(rec.min_us, 10.0);
      EXPECT_DOUBLE_EQ(rec.max_us, 30.0);
    } else {
      EXPECT_EQ(rec.workload, static_cast<std::uint8_t>(Workload::coalesce));
      EXPECT_EQ(rec.count, 1u);
    }
  }
}

TEST(Router, PlanFileV4CarriesRouteRecords) {
  const sparse::CsrMatrix m = synth::erdos_renyi(64, 64, 512, 42);
  core::ExecutionPlan plan = core::build_plan(m);
  plan.fingerprint = core::matrix_fingerprint(m);

  // Learn something, export it into the plan, round trip the file.
  Router r;
  r.observe(plan.fingerprint, Workload::spmm, 32, arm_spec_off(), 12.5);
  r.observe(plan.fingerprint, Workload::spmm, 32, arm_default(), 80.0);
  plan.routes = r.export_records(plan.fingerprint);
  ASSERT_EQ(plan.routes.size(), 2u);

  std::stringstream file;
  core::save_plan(plan, file);
  const core::ExecutionPlan loaded = core::load_plan(file);
  EXPECT_EQ(loaded.fingerprint, plan.fingerprint);
  ASSERT_EQ(loaded.routes.size(), plan.routes.size());
  for (std::size_t i = 0; i < plan.routes.size(); ++i) {
    EXPECT_EQ(loaded.routes[i].workload, plan.routes[i].workload);
    EXPECT_EQ(loaded.routes[i].k_bucket, plan.routes[i].k_bucket);
    EXPECT_EQ(loaded.routes[i].spec_mode, plan.routes[i].spec_mode);
    EXPECT_EQ(loaded.routes[i].count, plan.routes[i].count);
    EXPECT_DOUBLE_EQ(loaded.routes[i].total_us, plan.routes[i].total_us);
  }

  // A redeployed router importing the records starts warm: the learned
  // argmin decides immediately in frozen mode.
  RouterConfig frozen_cfg;
  frozen_cfg.frozen = true;
  Router warm(frozen_cfg);
  EXPECT_EQ(warm.import_records(loaded.fingerprint, loaded.routes), 2u);
  const Decision d =
      warm.decide(loaded.fingerprint, Workload::spmm, 32, {arm_default(), arm_spec_off()});
  EXPECT_TRUE(d.routed);
  EXPECT_EQ(d.choice, arm_spec_off());
}

TEST(Router, CalibrationSeedsSpecializationPriors) {
  // The kernel_scaling shape (bench_common.hpp JsonWriter output): the
  // specialization table seeds the spec-off vs default arms. generic_ms
  // is the faster alternative here, so an unseen fingerprint should
  // route to spec-off.
  const std::string json = R"({
    "bench": "kernel_scaling",
    "results": [],
    "specialization": [
      {"subject": "synthetic", "op": "spmm", "k": 32,
       "generic_ms": 1.0, "spec_ms": 4.0, "speedup": 0.25, "identical": true}
    ]
  })";
  RouterConfig frozen_cfg;
  frozen_cfg.frozen = true;
  Router r(frozen_cfg);
  EXPECT_GT(r.load_calibration_json(json), 0u);

  const Decision d =
      r.decide("never-seen-fp", Workload::spmm, 32, {arm_default(), arm_spec_off()});
  EXPECT_TRUE(d.routed);
  EXPECT_EQ(d.choice, arm_spec_off());
}

TEST(Router, PriorsYieldToPerMatrixObservations) {
  RouterConfig frozen_cfg;
  frozen_cfg.frozen = true;
  Router r(frozen_cfg);
  // Prior says spec-off is fast, but this matrix measured the opposite.
  r.install_prior(Workload::spmm, router::k_bucket(32), arm_spec_off(), 1.0, 4);
  r.install_prior(Workload::spmm, router::k_bucket(32), arm_default(), 100.0, 4);
  r.import_records("fp-local", {[] {
                     core::RouteRecord rec;
                     rec.workload = static_cast<std::uint8_t>(Workload::spmm);
                     rec.k_bucket = router::k_bucket(32);
                     rec.spec_mode = 0;
                     rec.count = 8;
                     rec.total_us = 8.0;  // mean 1us: beats the 100us prior
                     rec.min_us = 1.0;
                     rec.max_us = 1.0;
                     return rec;
                   }()});
  r.import_records("fp-local", {[] {
                     core::RouteRecord rec;
                     rec.workload = static_cast<std::uint8_t>(Workload::spmm);
                     rec.k_bucket = router::k_bucket(32);
                     rec.spec_mode = 1;
                     rec.count = 8;
                     rec.total_us = 800.0;  // mean 100us: spec-off slow HERE
                     rec.min_us = 100.0;
                     rec.max_us = 100.0;
                     return rec;
                   }()});

  // Unseen fingerprint follows the prior; the measured one overrides it.
  EXPECT_EQ(r.decide("fp-unseen", Workload::spmm, 32, {arm_default(), arm_spec_off()}).choice,
            arm_spec_off());
  EXPECT_EQ(r.decide("fp-local", Workload::spmm, 32, {arm_default(), arm_spec_off()}).choice,
            arm_default());
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

// Saved tables and v4 plan files from before the micro-GEMM (g1),
// spec-all (s3) and shard-strategy arms were retired still load: exactly
// those entries are dropped, the return counts show it, and frozen
// decisions over the remaining arms are the ones a table without them
// makes.
TEST(Router, RetiredArmsInOldTablesAndPlansAreDropped) {
  const std::string live =
      "s0g0d255t0b0a255 4 400 100 100\n"
      "s1g0d255t0b0a255 4 40 10 10\n";
  const std::string retired =
      "s0g1d255t0b0a255 4 4 1 1\n"
      "s3g0d255t0b0a255 4 8 2 2\n"
      "s0g0d1t0b0a255 4 4 1 1\n";
  // A key under the retired shard workload (3).
  const std::string shard_key =
      "fp 3 6 2 8\n"
      "s0g0d2t0b0a255 4 40 10 10\n"
      "s0g0d255t0b0a255 4 400 100 100\n";
  const auto table = [](std::size_t nkeys, std::size_t narms, const std::string& arms,
                        const std::string& more) {
    return "rrspmm-router-table v1\n" + std::to_string(nkeys) + "\nfp 0 5 " +
           std::to_string(narms) + " 16\n" + arms + more;
  };
  RouterConfig frozen_cfg;
  frozen_cfg.frozen = true;
  Router old_table(frozen_cfg), clean_table(frozen_cfg);
  std::istringstream old_in(table(2, 5, live + retired, shard_key)),
      clean_in(table(1, 2, live, ""));
  EXPECT_EQ(old_table.load_table(old_in), 2u);
  EXPECT_EQ(clean_table.load_table(clean_in), 2u);
  EXPECT_EQ(old_table.keys(), clean_table.keys());
  const std::vector<RouteChoice> arms = {arm_default(), arm_spec_off()};
  const Decision d = old_table.decide("fp", Workload::spmm, 32, arms);
  EXPECT_EQ(d.choice, arm_spec_off());
  EXPECT_EQ(d.choice, clean_table.decide("fp", Workload::spmm, 32, arms).choice);
  std::ostringstream saved;
  old_table.save_table(saved);
  EXPECT_EQ(saved.str().find("g1"), std::string::npos);
  EXPECT_EQ(saved.str().find("s3g"), std::string::npos);
  EXPECT_EQ(saved.str().find("d2t"), std::string::npos);
  EXPECT_EQ(saved.str().find("d1t"), std::string::npos);

  // A v4 plan file carrying live and retired records.
  const sparse::CsrMatrix m = synth::erdos_renyi(64, 64, 512, 42);
  core::ExecutionPlan plan = core::build_plan(m);
  plan.fingerprint = core::matrix_fingerprint(m);
  const auto record = [](std::uint8_t spec_mode, std::uint8_t micro_gemm, double mean_us) {
    core::RouteRecord rec;
    rec.workload = static_cast<std::uint8_t>(Workload::spmm);
    rec.k_bucket = router::k_bucket(32);
    rec.spec_mode = spec_mode;
    rec.micro_gemm = micro_gemm;
    rec.count = 4;
    rec.total_us = 4 * mean_us;
    rec.min_us = mean_us;
    rec.max_us = mean_us;
    return rec;
  };
  // A shard-workload record (retired workload 3 with a pinned strategy),
  // and an spmm record that pins a strategy.
  core::RouteRecord shard_rec = record(0, 0, 0.5);
  shard_rec.workload = 3;
  shard_rec.shard_strategy = 2;
  core::RouteRecord pinned = record(1, 0, 0.5);
  pinned.shard_strategy = 1;
  plan.routes = {record(0, 0, 100.0), record(1, 0, 10.0), record(0, 1, 1.0),
                 record(3, 0, 2.0),   shard_rec,          pinned};
  std::stringstream file;
  core::save_plan(plan, file);
  const core::ExecutionPlan loaded = core::load_plan(file);
  ASSERT_EQ(loaded.routes.size(), 6u);
  EXPECT_EQ(loaded.routes[2].micro_gemm, 1u);
  EXPECT_EQ(loaded.routes[4].workload, 3u);
  EXPECT_EQ(loaded.routes[4].shard_strategy, 2u);

  Router warm(frozen_cfg);
  EXPECT_EQ(warm.import_records(loaded.fingerprint, loaded.routes), 2u);
  EXPECT_EQ(warm.decide(loaded.fingerprint, Workload::spmm, 32, arms).choice, arm_spec_off());
  for (const core::RouteRecord& r : warm.export_records(loaded.fingerprint)) {
    EXPECT_EQ(r.micro_gemm, 0u);
    EXPECT_NE(r.spec_mode, 3u);
    EXPECT_NE(r.workload, 3u);
    EXPECT_EQ(r.shard_strategy, 255u);
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
  auto on = router::from_env();
  ASSERT_NE(on, nullptr);
  EXPECT_FALSE(on->frozen());
  ::setenv("RRSPMM_ROUTER", "frozen", 1);
  auto frozen = router::from_env();
  ASSERT_NE(frozen, nullptr);
  EXPECT_TRUE(frozen->frozen());

  if (saved) {
    ::setenv("RRSPMM_ROUTER", saved_val.c_str(), 1);
  } else {
    ::unsetenv("RRSPMM_ROUTER");
  }
}

TEST(RouterMetrics, RouteLatencyAttributesPerKey) {
  runtime::RouteLatency lat;
  const std::string key = router::route_key("fp", Workload::spmm, 32, arm_default());
  lat.record(key, 10.0);
  lat.record(key, 30.0);
  lat.record(router::route_key("fp", Workload::spmm, 32, arm_spec_off()), 5.0);

  const auto snap = lat.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  bool found = false;
  for (const auto& [k, s] : snap) {
    if (k != key) continue;
    found = true;
    EXPECT_EQ(s.count, 2u);
    EXPECT_DOUBLE_EQ(s.total_us, 40.0);
    EXPECT_DOUBLE_EQ(s.min_us, 10.0);
    EXPECT_DOUBLE_EQ(s.max_us, 30.0);
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(lat.dropped(), 0u);
}

TEST(RouterMetrics, RouteLatencyBoundsItsKeySet) {
  runtime::RouteLatency lat;
  for (std::size_t i = 0; i < runtime::RouteLatency::kMaxKeys + 3; ++i) {
    lat.record("key-" + std::to_string(i), 1.0);
  }
  EXPECT_EQ(lat.snapshot().size(), runtime::RouteLatency::kMaxKeys);
  EXPECT_EQ(lat.dropped(), 3u);
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
  bool sequential_borrowed = false;
  const std::string seq_key =
      router::route_key(core::matrix_fingerprint(m), Workload::spmm, 16, arm_sequential());
  for (const auto& [k, s] : server.metrics().route_latency.snapshot()) {
    sequential_borrowed |= k == seq_key && s.count > 0;
  }
  EXPECT_TRUE(sequential_borrowed) << "the sequential arm never served a borrowed request";

  for (int i = 0; i < 12; ++i) {
    sparse::DenseMatrix xi = x;
    expect_ref(server.submit("m", std::move(xi)).get(), "batch " + std::to_string(i));
  }
  server.wait_idle();

  // Closed loop: decisions were made, observed, and attributed per key.
  EXPECT_GT(server.metrics().router_decisions.load(), 0u);
  EXPECT_GT(router_ptr->decisions(), 0u);
  EXPECT_FALSE(server.metrics().route_latency.snapshot().empty());
  const std::string json = server.metrics_json();
  EXPECT_NE(json.find("route_latency"), std::string::npos);
}

TEST(ServerRouter, FrozenDecisionsSurvivePlanCacheEvictionAndReload) {
  // The router keys on the matrix fingerprint, not on plan residency, so
  // evicting and rebuilding the plan must not change a frozen decision.
  const sparse::CsrMatrix a = synth::erdos_renyi(80, 80, 640, 7);
  const sparse::CsrMatrix b = synth::erdos_renyi(80, 80, 640, 8);
  const sparse::CsrMatrix c = synth::erdos_renyi(80, 80, 640, 9);
  const std::string fp_a = core::matrix_fingerprint(a);

  Router trainer;
  const std::vector<RouteChoice> arms = {arm_default(), arm_spec_off()};
  for (int i = 0; i < 32; ++i) {
    const Decision d = trainer.decide(fp_a, Workload::spmm, 16, arms);
    trainer.observe(fp_a, Workload::spmm, 16, d.choice, synthetic_us(d.choice));
  }
  std::ostringstream table;
  trainer.save_table(table);

  RouterConfig frozen_cfg;
  frozen_cfg.frozen = true;
  auto frozen = std::make_shared<Router>(frozen_cfg);
  {
    std::istringstream in(table.str());
    ASSERT_GT(frozen->load_table(in), 0u);
  }

  runtime::ServerConfig scfg;
  scfg.threads = 2;
  scfg.plan_cache_capacity = 2;  // three matrices: A is evicted below
  scfg.router = frozen;
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
  // Frozen: the same table argmin decided both executions — no
  // exploration happened on either side of the eviction.
  EXPECT_EQ(frozen->explorations(), 0u);
  const std::string expected_key = router::route_key(
      fp_a, Workload::spmm, 16, trainer.preferred(fp_a, Workload::spmm, arm_default()));
  bool attributed = false;
  for (const auto& [k, s] : server.metrics().route_latency.snapshot()) {
    if (k == expected_key) {
      attributed = true;
      EXPECT_GE(s.count, 2u);  // one before the eviction, one after
    }
  }
  EXPECT_TRUE(attributed);
}

TEST(RouterJson, ParserHandlesBenchShapes) {
  const auto doc = router::parse_json(R"({"a": [1, 2.5, -3e2], "b": "str", "c": true, "d": null})");
  ASSERT_EQ(doc.type, router::JsonValue::Type::object);
  const auto* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->arr.size(), 3u);
  EXPECT_DOUBLE_EQ(a->arr[1].num, 2.5);
  EXPECT_DOUBLE_EQ(a->arr[2].num, -300.0);
  EXPECT_EQ(*doc.find("b")->string_or_null(), "str");
  EXPECT_TRUE(doc.find("c")->b);
  EXPECT_EQ(doc.find("d")->type, router::JsonValue::Type::null);
  EXPECT_THROW(router::parse_json("{\"unterminated\": "), std::runtime_error);
  EXPECT_THROW(router::parse_json("[1,]"), std::runtime_error);
}

}  // namespace
}  // namespace rrspmm
