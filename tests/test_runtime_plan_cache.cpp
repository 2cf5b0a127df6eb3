// PlanCache unit + concurrency stress tests. The stress tests are the
// ones the CI ThreadSanitizer job exists for: 8 threads hammering one
// cache must produce exactly one build per key when capacity suffices
// (single-flight), and stay consistent under eviction when it does not.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/fingerprint.hpp"
#include "runtime/plan_cache.hpp"
#include "synth/corpus.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

using runtime::PlanCache;
using runtime::PlanCacheConfig;
using runtime::PlanMode;
using runtime::PlanPtr;

PlanCacheConfig small_cfg(std::size_t capacity) {
  PlanCacheConfig cfg;
  cfg.capacity = capacity;
  return cfg;
}

TEST(PlanCache, MissThenHit) {
  PlanCache cache(small_cfg(8));
  const auto m = test::alg3_matrix();
  const PlanPtr first = cache.get(m);
  EXPECT_EQ(cache.metrics().cache_misses.load(), 1u);
  EXPECT_EQ(cache.metrics().plans_built.load(), 1u);

  const PlanPtr second = cache.get(m);
  EXPECT_EQ(cache.metrics().cache_hits.load(), 1u);
  EXPECT_EQ(cache.metrics().plans_built.load(), 1u);
  EXPECT_EQ(first.get(), second.get()) << "hit must share the same immutable plan";
}

TEST(PlanCache, PlanMatchesDirectBuild) {
  PlanCacheConfig cfg = small_cfg(4);
  PlanCache cache(cfg);
  const auto m = test::alg3_matrix();
  const PlanPtr cached = cache.get(m, PlanMode::rr);
  const core::ExecutionPlan direct = core::build_plan(m, cfg.pipeline);
  EXPECT_EQ(cached->row_perm, direct.row_perm);
  EXPECT_EQ(cached->sparse_order, direct.sparse_order);
  EXPECT_EQ(cached->tiled.stats().nnz_dense, direct.tiled.stats().nnz_dense);
}

TEST(PlanCache, ModesAreDistinctKeys) {
  PlanCache cache(small_cfg(8));
  const auto m = test::alg3_matrix();
  cache.get(m, PlanMode::rr);
  cache.get(m, PlanMode::nr);
  EXPECT_EQ(cache.metrics().cache_misses.load(), 2u);
  EXPECT_EQ(cache.metrics().plans_built.load(), 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCache, EvictsLeastRecentlyUsed) {
  PlanCache cache(small_cfg(2));
  const auto corpus = synth::build_test_corpus();
  ASSERT_GE(corpus.size(), 3u);

  cache.get(corpus[0].matrix);  // miss
  cache.get(corpus[1].matrix);  // miss
  cache.get(corpus[0].matrix);  // hit, moves [0] to front
  cache.get(corpus[2].matrix);  // miss, evicts [1]
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.metrics().cache_evictions.load(), 1u);

  cache.get(corpus[0].matrix);  // still resident
  EXPECT_EQ(cache.metrics().cache_hits.load(), 2u);
  cache.get(corpus[1].matrix);  // evicted earlier -> rebuilt
  EXPECT_EQ(cache.metrics().plans_built.load(), 4u);
}

TEST(PlanCache, ClearDropsReadyEntries) {
  PlanCache cache(small_cfg(8));
  const auto corpus = synth::build_test_corpus();
  cache.get(corpus[0].matrix);
  cache.get(corpus[1].matrix);
  EXPECT_EQ(cache.clear(), 2u);
  EXPECT_EQ(cache.size(), 0u);
}

// The acceptance-criteria stress: 8 threads, capacity comfortably above
// the key count, every thread requesting every key many times in a
// scrambled order. Single-flight must hold — exactly one build per
// (matrix, config) key, everything else hits or blocks on the in-flight
// future.
TEST(PlanCacheStress, SingleFlightBuildsEachKeyOnce) {
  const auto corpus = synth::build_test_corpus();
  const std::size_t n_keys = corpus.size();
  PlanCache cache(small_cfg(2 * n_keys));

  constexpr int kThreads = 8;
  constexpr int kIters = 25;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int it = 0; it < kIters; ++it) {
        for (std::size_t j = 0; j < n_keys; ++j) {
          const std::size_t pick = (j + static_cast<std::size_t>(t) + static_cast<std::size_t>(it)) % n_keys;
          const PlanPtr plan = cache.get(corpus[pick].matrix);
          ASSERT_EQ(static_cast<index_t>(plan->row_perm.size()), corpus[pick].matrix.rows());
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto& m = cache.metrics();
  EXPECT_EQ(m.plans_built.load(), n_keys) << "single-flight violated: duplicate builds";
  EXPECT_EQ(m.cache_misses.load(), n_keys);
  EXPECT_EQ(m.cache_hits.load() + m.cache_misses.load(),
            static_cast<std::uint64_t>(kThreads) * kIters * n_keys);
  EXPECT_EQ(m.cache_evictions.load(), 0u);
}

// Contention with a cache smaller than the working set: builds and
// evictions are unavoidable, but the counters must balance and every
// returned plan must be the right one for its matrix.
TEST(PlanCacheStress, EvictionUnderContentionStaysConsistent) {
  const auto corpus = synth::build_test_corpus();
  const std::size_t n_keys = corpus.size();
  ASSERT_GE(n_keys, 4u);
  PlanCache cache(small_cfg(2));

  constexpr int kThreads = 8;
  constexpr int kIters = 10;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int it = 0; it < kIters; ++it) {
        for (std::size_t j = 0; j < n_keys; ++j) {
          const std::size_t pick = (static_cast<std::size_t>(t) * 3 + j) % n_keys;
          const PlanPtr plan = cache.get(corpus[pick].matrix);
          ASSERT_EQ(static_cast<index_t>(plan->row_perm.size()), corpus[pick].matrix.rows());
          ASSERT_EQ(plan->tiled.rows(), corpus[pick].matrix.rows());
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto& m = cache.metrics();
  const std::uint64_t total = static_cast<std::uint64_t>(kThreads) * kIters * n_keys;
  EXPECT_EQ(m.cache_hits.load() + m.cache_misses.load(), total);
  EXPECT_EQ(m.plans_built.load(), m.cache_misses.load())
      << "every miss leads to exactly one build";
  EXPECT_GT(m.cache_evictions.load(), 0u);
  EXPECT_LE(cache.size(), static_cast<std::size_t>(2 + kThreads))
      << "at most capacity + in-flight pins";
}

// --- the cached SpecializationPlan record ----------------------------

// Every plan the cache builds carries its AOT specialization record, and
// a hit shares it: one record per resident plan, never one per request.
TEST(PlanCacheSpecialization, HitsShareOneRecordPerPlan) {
  PlanCache cache(small_cfg(8));
  const auto m = test::alg3_matrix();
  const PlanPtr first = cache.get(m);
  ASSERT_NE(first->spec, nullptr);
  const PlanPtr second = cache.get(m);
  EXPECT_EQ(first->spec.get(), second->spec.get());
  // The histogram classifies every sparse-remainder row exactly once.
  EXPECT_EQ(first->spec->total_rows(), static_cast<std::uint64_t>(m.rows()));
}

// Single-flight under 8 threads must also hold for the record: every
// thread that raced on the same key observes the *same* SpecializationPlan
// instance (the one built by the single winning build).
TEST(PlanCacheStress, SingleFlightSharesOneSpecializationRecord) {
  const auto m = test::alg3_matrix();
  PlanCache cache(small_cfg(4));

  constexpr int kThreads = 8;
  std::vector<const kernels::simd::SpecializationPlan*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const PlanPtr plan = cache.get(m);
      seen[static_cast<std::size_t>(t)] = plan->spec.get();
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(cache.metrics().plans_built.load(), 1u);
  ASSERT_NE(seen[0], nullptr);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]) << "thread " << t;
  }
}

// Eviction must release the specialization record together with its plan
// — the record is owned by the plan, so no cache-side reference may keep
// it alive once the entry is dropped and no caller holds the plan.
TEST(PlanCacheSpecialization, EvictionDropsRecordWithPlan) {
  PlanCache cache(small_cfg(1));
  const auto corpus = synth::build_test_corpus();
  ASSERT_GE(corpus.size(), 2u);

  std::weak_ptr<const core::ExecutionPlan> plan_obs;
  std::weak_ptr<const kernels::simd::SpecializationPlan> spec_obs;
  {
    const PlanPtr plan = cache.get(corpus[0].matrix);
    ASSERT_NE(plan->spec, nullptr);
    plan_obs = plan;
    spec_obs = plan->spec;
  }
  EXPECT_FALSE(spec_obs.expired()) << "record must stay resident with the cached plan";

  cache.get(corpus[1].matrix);  // capacity 1: evicts corpus[0]'s plan
  EXPECT_EQ(cache.metrics().cache_evictions.load(), 1u);
  EXPECT_TRUE(plan_obs.expired()) << "evicted plan leaked";
  EXPECT_TRUE(spec_obs.expired()) << "evicted plan's SpecializationPlan leaked";
}

// A fingerprint mismatch is a different key: a matrix with the same shape
// but different contents must never be served the stale entry, and the
// fresh plan's record reflects the *new* row-length distribution.
TEST(PlanCacheSpecialization, StaleFingerprintEntryIsNeverServed) {
  PlanCache cache(small_cfg(8));

  // Same 6x7 shape; `wide` rewrites the rows so every one is long enough
  // to leave the short-row class that `narrow` (alg3: nnz 1-3 per row)
  // populates.
  const auto narrow = test::alg3_matrix();
  std::vector<std::vector<value_t>> rows(6, {1, 2, 3, 4, 5, 6, 7});
  const auto wide = test::csr(rows);
  ASSERT_EQ(narrow.rows(), wide.rows());
  ASSERT_EQ(narrow.cols(), wide.cols());

  const std::string fp_narrow = core::matrix_fingerprint(narrow);
  const std::string fp_wide = core::matrix_fingerprint(wide);
  ASSERT_NE(fp_narrow, fp_wide) << "contents must change the fingerprint";

  const PlanPtr p_narrow = cache.get(fp_narrow, narrow, PlanMode::rr);
  const PlanPtr p_wide = cache.get(fp_wide, wide, PlanMode::rr);
  EXPECT_EQ(cache.metrics().cache_misses.load(), 2u) << "stale entry served as a hit";
  EXPECT_NE(p_narrow.get(), p_wide.get());
  EXPECT_NE(p_narrow->spec.get(), p_wide->spec.get());

  // The records describe their own matrix, not the stale one.
  EXPECT_TRUE(p_narrow->spec->wants_short_unroll());
  EXPECT_FALSE(p_wide->spec->wants_short_unroll());

  // Re-requesting each fingerprint still returns its own plan.
  EXPECT_EQ(cache.get(fp_narrow, narrow, PlanMode::rr).get(), p_narrow.get());
  EXPECT_EQ(cache.get(fp_wide, wide, PlanMode::rr).get(), p_wide.get());
  EXPECT_EQ(cache.metrics().cache_hits.load(), 2u);
}

}  // namespace
}  // namespace rrspmm
