// Thread-safe, capacity-bounded LRU cache of execution plans.
//
// The paper's preprocessing (LSH + clustering + tiling) costs orders of
// magnitude more than one SpMM (§4: the transformation pays off only when
// amortised over many multiplications of the same matrix). A serving
// workload multiplies by the same matrices over and over, so the runtime
// keys plans by matrix fingerprint + pipeline configuration + plan mode
// and reuses them across requests and threads.
//
// Construction is *single-flight*: when N threads miss on the same key
// concurrently, exactly one runs build_plan while the others block on a
// shared future of the same entry. In-flight entries are pinned — the LRU
// eviction scan skips them — so a burst of requests for an uncached
// matrix can never trigger a second build of a key that is already being
// built.
#pragma once

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/pipeline.hpp"
#include "runtime/metrics.hpp"
#include "sparse/csr.hpp"

namespace rrspmm::runtime {

/// Which pipeline entry point a cached plan came from.
enum class PlanMode {
  rr,  ///< core::build_plan — the paper's full ASpT-RR workflow
  nr,  ///< core::build_plan_nr — tiling only
};

/// Plans are shared immutable: every kernel entry point takes them const,
/// so one instance serves any number of concurrent executions.
using PlanPtr = std::shared_ptr<const core::ExecutionPlan>;

struct PlanCacheConfig {
  std::size_t capacity = 32;             ///< max resident plans (≥ 1)
  core::PipelineConfig pipeline;         ///< knobs baked into every build
};

class PlanCache {
 public:
  /// `metrics`, when given, must outlive the cache (the Server passes its
  /// own); otherwise an internal instance is used.
  explicit PlanCache(PlanCacheConfig cfg = {}, Metrics* metrics = nullptr);

  /// Returns the plan for `m` under `mode`, building it on first use.
  /// Blocks while another thread builds the same key. Fingerprints `m`
  /// on every call (O(nnz)); prefer the precomputed-fingerprint overload
  /// on hot paths.
  PlanPtr get(const sparse::CsrMatrix& m, PlanMode mode = PlanMode::rr);

  /// As above with the matrix fingerprint precomputed by the caller
  /// (core::matrix_fingerprint). `m` is only touched on a miss.
  PlanPtr get(const std::string& matrix_fingerprint, const sparse::CsrMatrix& m, PlanMode mode);

  /// Resident entries (including in-flight builds).
  std::size_t size() const;

  /// Drops every *ready* entry; in-flight builds stay. Returns the number
  /// dropped.
  std::size_t clear();

  const Metrics& metrics() const { return *metrics_; }

 private:
  struct Entry {
    std::string key;
    std::shared_future<PlanPtr> plan;
    std::uint64_t id = 0;     ///< generation tag (guards vs. re-insertion)
    bool ready = false;       ///< build finished; eligible for eviction
  };
  using EntryList = std::list<Entry>;

  PlanPtr build(const sparse::CsrMatrix& m, PlanMode mode) const;
  void evict_excess_locked();

  PlanCacheConfig cfg_;
  Metrics own_metrics_;
  Metrics* metrics_;

  mutable std::mutex m_;
  EntryList lru_;  ///< front = most recently used
  std::unordered_map<std::string, EntryList::iterator> map_;
  std::uint64_t next_id_ = 0;
};

}  // namespace rrspmm::runtime
