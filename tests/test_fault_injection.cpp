// Fail-point framework unit tests: arming/disarming, deterministic
// schedules replayed from a seed (sequentially and across thread
// counts), hit-count bounds, stall timing, spec round-trips, and the
// zero-overhead-when-disarmed contract.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "fault/fault.hpp"

namespace {

using namespace rrspmm;

#if defined(__SANITIZE_THREAD__)
#define RRSPMM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RRSPMM_TSAN 1
#endif
#endif

fault::FaultRule throw_rule(const char* point, double p = 1.0, std::uint64_t after = 0,
                            std::uint64_t max = 0) {
  fault::FaultRule r;
  r.point = point;
  r.kind = fault::FaultKind::throw_error;
  r.probability = p;
  r.after_hits = after;
  r.max_triggers = max;
  return r;
}

fault::FaultPlan one_rule_plan(std::uint64_t seed, fault::FaultRule r) {
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.rules.push_back(std::move(r));
  return plan;
}

constexpr const char* kPoint = "test.point";

TEST(FaultInjection, DisarmedHitsAreFreeAndInvisible) {
  auto& reg = fault::FaultRegistry::instance();
  ASSERT_FALSE(reg.armed());
  // A disarmed hit must not touch the registry at all: arm to reset the
  // counters, disarm, then hit — the armed-phase counters stay put.
  { fault::ScopedFaultPlan armed(one_rule_plan(1, throw_rule(kPoint))); }
  const std::uint64_t hits_before = reg.hits();
  for (int i = 0; i < 1000; ++i) fault::hit(kPoint);
  EXPECT_EQ(reg.hits(), hits_before);
  EXPECT_FALSE(reg.armed());
}

#if !defined(RRSPMM_TSAN) && defined(NDEBUG)
TEST(FaultInjection, DisarmedHitIsASingleAtomicLoad) {
  // Generous bound — the point is to catch a regression that adds a lock
  // or a map lookup to the disarmed path, not to microbenchmark.
  constexpr int kIters = 10'000'000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) fault::hit(kPoint);
  const double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(s / kIters, 100e-9) << "disarmed fail point costs " << s / kIters * 1e9 << " ns/hit";
}
#endif

TEST(FaultInjection, ScopedPlanArmsAndDisarms) {
  auto& reg = fault::FaultRegistry::instance();
  {
    fault::ScopedFaultPlan armed(one_rule_plan(7, throw_rule(kPoint)));
    EXPECT_TRUE(reg.armed());
    EXPECT_EQ(reg.plan().seed, 7u);
  }
  EXPECT_FALSE(reg.armed());
}

TEST(FaultInjection, ThrowRuleFiresAndIsCounted) {
  auto& reg = fault::FaultRegistry::instance();
  fault::ScopedFaultPlan armed(one_rule_plan(3, throw_rule(kPoint)));
  EXPECT_THROW(fault::hit(kPoint), fault::injected_fault);
  try {
    fault::hit(kPoint);
    FAIL() << "expected injected_fault";
  } catch (const fault::injected_fault& e) {
    EXPECT_EQ(e.point(), kPoint);
  }
  EXPECT_EQ(reg.faults_injected(), 2u);
  EXPECT_EQ(reg.point_stats(kPoint).hits, 2u);
  EXPECT_EQ(reg.point_stats(kPoint).triggered, 2u);
}

TEST(FaultInjection, StatsStayReadableAfterDisarm) {
  auto& reg = fault::FaultRegistry::instance();
  {
    fault::ScopedFaultPlan armed(one_rule_plan(3, throw_rule(kPoint)));
    EXPECT_THROW(fault::hit(kPoint), fault::injected_fault);
  }
  EXPECT_EQ(reg.faults_injected(), 1u);
  EXPECT_EQ(reg.point_stats(kPoint).triggered, 1u);
}

TEST(FaultInjection, NothrowSiteSkipsThrowRulesButCountsHits) {
  auto& reg = fault::FaultRegistry::instance();
  fault::ScopedFaultPlan armed(one_rule_plan(3, throw_rule(kPoint)));
  for (int i = 0; i < 10; ++i) EXPECT_NO_THROW(fault::hit_nothrow(kPoint));
  EXPECT_EQ(reg.faults_injected(), 0u);
  EXPECT_EQ(reg.point_stats(kPoint).hits, 10u);
  // Skipped throws must not consume the trigger budget.
  EXPECT_EQ(reg.point_stats(kPoint).triggered, 0u);
}

TEST(FaultInjection, AfterHitsSkipsTheFirstN) {
  fault::ScopedFaultPlan armed(one_rule_plan(5, throw_rule(kPoint, 1.0, /*after=*/3)));
  EXPECT_NO_THROW(fault::hit(kPoint));
  EXPECT_NO_THROW(fault::hit(kPoint));
  EXPECT_NO_THROW(fault::hit(kPoint));
  EXPECT_THROW(fault::hit(kPoint), fault::injected_fault);
}

TEST(FaultInjection, MaxTriggersCapsTotalFirings) {
  auto& reg = fault::FaultRegistry::instance();
  fault::ScopedFaultPlan armed(one_rule_plan(5, throw_rule(kPoint, 1.0, 0, /*max=*/2)));
  int thrown = 0;
  for (int i = 0; i < 20; ++i) {
    try {
      fault::hit(kPoint);
    } catch (const fault::injected_fault&) {
      ++thrown;
    }
  }
  EXPECT_EQ(thrown, 2);
  EXPECT_EQ(reg.faults_injected(), 2u);
}

TEST(FaultInjection, ConcurrentHitsRespectTheExactCap) {
  std::atomic<int> thrown{0};
  {
    fault::ScopedFaultPlan armed(one_rule_plan(9, throw_rule(kPoint, 1.0, 0, /*max=*/5)));
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&thrown] {
        for (int i = 0; i < 500; ++i) {
          try {
            fault::hit(kPoint);
          } catch (const fault::injected_fault&) {
            thrown.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  EXPECT_EQ(thrown.load(), 5);
}

// The deterministic-schedule contract: which hit indices trigger is a
// pure function of (seed, point, index), so two sequential runs of the
// same plan produce the same triggering set.
TEST(FaultInjection, SeedReplaysTheSameSchedule) {
  const auto run = [](std::uint64_t seed) {
    fault::ScopedFaultPlan armed(one_rule_plan(seed, throw_rule(kPoint, 0.5)));
    std::set<int> triggered;
    for (int i = 0; i < 200; ++i) {
      try {
        fault::hit(kPoint);
      } catch (const fault::injected_fault&) {
        triggered.insert(i);
      }
    }
    return triggered;
  };
  const std::set<int> first = run(42);
  const std::set<int> second = run(42);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
  EXPECT_LT(first.size(), 200u);  // p = 0.5 fires on a strict subset
  EXPECT_NE(run(43), first);      // a different seed reschedules
}

// Thread interleaving must not change WHAT triggers, only who observes
// it: the trigger count of N hits is the same sequentially and split
// across threads (indices are drawn from one atomic counter).
TEST(FaultInjection, ScheduleIsThreadCountInvariant) {
  constexpr int kHits = 400;
  const auto count_triggers = [](int threads) {
    fault::ScopedFaultPlan armed(one_rule_plan(77, throw_rule(kPoint, 0.5)));
    std::atomic<int> thrown{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&thrown, threads] {
        for (int i = 0; i < kHits / threads; ++i) {
          try {
            fault::hit(kPoint);
          } catch (const fault::injected_fault&) {
            thrown.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& t : pool) t.join();
    return thrown.load();
  };
  const int sequential = count_triggers(1);
  EXPECT_GT(sequential, 0);
  EXPECT_EQ(count_triggers(4), sequential);
  EXPECT_EQ(count_triggers(8), sequential);
}

TEST(FaultInjection, StallRuleSleepsTheCaller) {
  auto& reg = fault::FaultRegistry::instance();
  fault::FaultRule r;
  r.point = kPoint;
  r.kind = fault::FaultKind::stall;
  r.stall_us = 20000;
  r.max_triggers = 1;
  fault::ScopedFaultPlan armed(one_rule_plan(1, r));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_NO_THROW(fault::hit(kPoint));
  const double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_GE(s, 0.010);  // sleep_for may overshoot, never undershoot by half
  EXPECT_EQ(reg.stalls_injected(), 1u);
  EXPECT_EQ(reg.faults_injected(), 0u);
}

TEST(FaultInjection, StallRulesApplyAtNothrowSites) {
  auto& reg = fault::FaultRegistry::instance();
  fault::FaultRule r;
  r.point = kPoint;
  r.kind = fault::FaultKind::stall;
  r.stall_us = 5000;
  r.max_triggers = 1;
  fault::ScopedFaultPlan armed(one_rule_plan(1, r));
  EXPECT_NO_THROW(fault::hit_nothrow(kPoint));
  EXPECT_EQ(reg.stalls_injected(), 1u);
}

TEST(FaultInjection, SpecRoundTrips) {
  fault::FaultPlan plan;
  plan.seed = 123456789;
  plan.rules.push_back(throw_rule("shard.exec", 0.25, 2, 3));
  fault::FaultRule stall;
  stall.point = "server.drain";
  stall.kind = fault::FaultKind::stall;
  stall.probability = 0.5;
  stall.stall_us = 750;
  stall.max_triggers = 4;
  plan.rules.push_back(stall);

  const std::string spec = plan.to_string();
  EXPECT_EQ(fault::FaultPlan::parse(spec), plan);
}

TEST(FaultInjection, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(fault::FaultPlan::parse("nonsense"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("seed=1;point"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("seed=1;p,not_a_kind"), std::invalid_argument);
}

TEST(FaultInjection, ChaosPlansAreDeterministicAndBounded) {
  const fault::FaultPlan a = fault::FaultPlan::chaos(11);
  EXPECT_EQ(a, fault::FaultPlan::chaos(11));
  EXPECT_NE(a, fault::FaultPlan::chaos(12));
  EXPECT_FALSE(a.empty());

  // Every chaos plan guarantees that the first plan build throws (so
  // the batch retry exercises) and caps every throw rule (so retries
  // eventually win).
  for (std::uint64_t seed : {11u, 23u, 47u, 1000003u}) {
    const fault::FaultPlan p = fault::FaultPlan::chaos(seed);
    bool has_first_build_throw = false;
    for (const fault::FaultRule& r : p.rules) {
      if (r.kind == fault::FaultKind::throw_error) {
        EXPECT_GT(r.max_triggers, 0u) << "uncapped throw rule in chaos(" << seed << ")";
        if (r.point == fault::points::kPlanCacheBuild && r.probability == 1.0 &&
            r.after_hits == 0) {
          has_first_build_throw = true;
        }
      }
    }
    EXPECT_TRUE(has_first_build_throw)
        << "chaos(" << seed << ") does not throw on the first plan build";
    // The spec line printed by the soak suite must reproduce the plan.
    EXPECT_EQ(fault::FaultPlan::parse(p.to_string()), p);
  }
}

}  // namespace
