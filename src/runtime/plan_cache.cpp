#include "runtime/plan_cache.hpp"

#include <utility>

#include "core/fingerprint.hpp"
#include "fault/fault.hpp"

namespace rrspmm::runtime {

namespace {

std::uint64_t to_us(double ms) {
  return ms > 0.0 ? static_cast<std::uint64_t>(ms * 1000.0) : 0;
}

char mode_tag(PlanMode mode) {
  switch (mode) {
    case PlanMode::rr: return 'r';
    case PlanMode::nr: return 'n';
  }
  return '?';
}

}  // namespace

PlanCache::PlanCache(PlanCacheConfig cfg, Metrics* metrics)
    : cfg_(std::move(cfg)), metrics_(metrics ? metrics : &own_metrics_) {
  if (cfg_.capacity == 0) cfg_.capacity = 1;
}

PlanPtr PlanCache::get(const sparse::CsrMatrix& m, PlanMode mode) {
  return get(core::matrix_fingerprint(m), m, mode);
}

PlanPtr PlanCache::get(const std::string& matrix_fingerprint, const sparse::CsrMatrix& m,
                       PlanMode mode) {
  std::string key = matrix_fingerprint;
  key += '|';
  key += mode_tag(mode);

  std::shared_future<PlanPtr> fut;
  std::shared_ptr<std::promise<PlanPtr>> prom;
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lk(m_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      metrics_->cache_hits.fetch_add(1, std::memory_order_relaxed);
      fut = it->second->plan;
    } else {
      metrics_->cache_misses.fetch_add(1, std::memory_order_relaxed);
      prom = std::make_shared<std::promise<PlanPtr>>();
      fut = prom->get_future().share();
      id = ++next_id_;
      lru_.push_front(Entry{key, fut, id, false});
      map_[key] = lru_.begin();
      evict_excess_locked();
    }
  }

  if (prom) {
    // Build outside the lock — this is the expensive part, and other keys
    // must keep hitting while it runs.
    try {
      PlanPtr plan = build(m, mode);
      metrics_->plans_built.fetch_add(1, std::memory_order_relaxed);
      const core::PipelineStats& ps = plan->stats;
      metrics_->preproc_sig_us.fetch_add(to_us(ps.sig_ms), std::memory_order_relaxed);
      metrics_->preproc_band_us.fetch_add(to_us(ps.band_ms), std::memory_order_relaxed);
      metrics_->preproc_score_us.fetch_add(to_us(ps.score_ms), std::memory_order_relaxed);
      metrics_->preproc_merge_us.fetch_add(to_us(ps.merge_ms), std::memory_order_relaxed);
      if (ps.preproc_degraded) {
        metrics_->preproc_degradations.fetch_add(1, std::memory_order_relaxed);
      }
      {
        std::lock_guard<std::mutex> lk(m_);
        auto it = map_.find(key);
        if (it != map_.end() && it->second->id == id) it->second->ready = true;
        // Insert-time eviction skips in-flight entries, so a burst of
        // concurrent builds can leave the cache over capacity with
        // nothing evictable; shrink it now that this entry is ready.
        evict_excess_locked();
      }
      prom->set_value(std::move(plan));
    } catch (...) {
      // Drop the failed entry so a later request retries the build
      // instead of caching the exception forever.
      {
        std::lock_guard<std::mutex> lk(m_);
        auto it = map_.find(key);
        if (it != map_.end() && it->second->id == id) {
          lru_.erase(it->second);
          map_.erase(it);
        }
      }
      prom->set_exception(std::current_exception());
    }
  }
  return fut.get();
}

PlanPtr PlanCache::build(const sparse::CsrMatrix& m, PlanMode mode) const {
  fault::hit(fault::points::kPlanCacheBuild);
  core::ExecutionPlan plan;
  switch (mode) {
    case PlanMode::nr:
      plan = core::build_plan_nr(m, cfg_.pipeline);
      break;
    case PlanMode::rr:
      plan = core::build_plan(m, cfg_.pipeline);
      break;
  }
  return std::make_shared<const core::ExecutionPlan>(std::move(plan));
}

void PlanCache::evict_excess_locked() {
  // Stall-only: we hold the cache lock, a throw would strand an in-flight
  // entry that concurrent get() calls are waiting on.
  fault::hit_nothrow(fault::points::kPlanCacheEvict);
  // Walk from the cold end, evicting ready entries until within capacity.
  // In-flight entries are pinned (evicting one would let a concurrent
  // request start a duplicate build); the cache may transiently exceed
  // capacity while many builds are in flight.
  auto it = lru_.end();
  while (map_.size() > cfg_.capacity && it != lru_.begin()) {
    --it;
    if (!it->ready) continue;
    map_.erase(it->key);
    it = lru_.erase(it);
    metrics_->cache_evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lk(m_);
  return map_.size();
}

std::size_t PlanCache::clear() {
  std::lock_guard<std::mutex> lk(m_);
  std::size_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->ready) {
      map_.erase(it->key);
      it = lru_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

}  // namespace rrspmm::runtime
