// Adaptive execution: a per-plan router that turns measured latency
// into closed-loop kernel/batch decisions.
//
// The paper's thesis is that the right layout and execution strategy
// depend on the matrix. The Router picks among the repo's existing
// execution paths (specialization on/off, sequential vs worker pool,
// hash/sort SpGEMM accumulators, batch coalescing) from a cost table
// keyed on
//
//   (matrix fingerprint, workload, ceil-log2 K bucket)
//
// that maps candidate configurations ("arms") to measured latency stats.
// The Server asks it to decide() before each batch and observe() the
// measured latency after — a deterministic epsilon-greedy bandit per
// key. The table lives in memory only; Router::to_json() is its one
// record.
//
// Routing never changes result bits: every arm is one of the existing
// bitwise-guarded execution paths, all of which preserve the scalar
// reference's per-element accumulation order. The
// router only chooses *which* of the bit-identical paths runs, so
// bitwise/chaos CI contracts hold with it enabled.
//
// Determinism: each key explores on its own decision counter (fill
// each arm to min_samples round-robin, then every explore_period-th
// decision probes the next arm) — no wall clock, no RNG, so a replay
// with the same request sequence makes the same decisions.
//
// Env knob (read by from_env()): RRSPMM_ROUTER = off (default) | on.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sparse/types.hpp"

namespace rrspmm::router {

/// Workloads routed independently (same matrix, different cost shape).
/// Id 3 was the retired shard-strategy workload.
enum class Workload : std::uint8_t {
  spmm = 0,      ///< server SpMM batches (kernel variant + threads)
  sddmm = 1,     ///< server SDDMM requests (kernel variant)
  spgemm = 2,    ///< server SpGEMM requests (accumulator)
  coalesce = 4,  ///< server batch formation (coalescing width)
};
const char* workload_name(Workload w);

/// Sentinel for "leave the caller's configured value alone".
inline constexpr std::uint8_t kDefaultAccumulator = 255;

/// One arm: a complete configuration choice for a decision. Fields the
/// workload does not route stay at their defaults and take no part in
/// the executed configuration.
struct RouteChoice {
  /// kernels::simd::SpecMode as uint8 (1 off, 2 rows); 0 = the
  /// configured mode.
  std::uint8_t spec_mode = 0;
  /// 0 = worker pool, 1 = sequential in-thread execution.
  std::uint8_t threads = 0;
  /// Batch coalescing cap; 0 = the server's configured max_batch.
  std::uint8_t batch = 0;
  /// spgemm::Accumulator as uint8, kDefaultAccumulator = config default.
  std::uint8_t accumulator = kDefaultAccumulator;

  /// Compact stable encoding, e.g. "s2t0b0a255" — the arm's identity in
  /// route keys and the to_json() table.
  std::string key() const;
  bool operator==(const RouteChoice& o) const {
    return spec_mode == o.spec_mode && threads == o.threads && batch == o.batch &&
           accumulator == o.accumulator;
  }
  bool operator!=(const RouteChoice& o) const { return !(*this == o); }
};

/// Exact latency statistics of one arm under one key (count/sum/min/max, µs).
struct ArmStats {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double min_us = 0.0;
  double max_us = 0.0;

  void add(double us) {
    min_us = count == 0 ? us : std::min(min_us, us);
    max_us = count == 0 ? us : std::max(max_us, us);
    ++count;
    total_us += us;
  }
  double mean_us() const { return count > 0 ? total_us / static_cast<double>(count) : 0.0; }
};

struct Decision {
  RouteChoice choice;
  bool routed = false;    ///< false: no arms or table full — caller's defaults ran
  bool explored = false;  ///< true: this pick samples, it is not the argmin
};

struct RouterConfig {
  /// Every arm is sampled this many times (round-robin) before
  /// exploitation starts for a key.
  std::uint32_t min_samples = 2;
  /// Every explore_period-th decision of a key re-probes arms in
  /// rotation so a drifting workload can re-converge. 0 disables.
  std::uint32_t explore_period = 16;
  /// Bound on distinct (fingerprint, workload, k-bucket) keys; new keys
  /// beyond it fall back to the default arm unrouted.
  std::size_t max_keys = 1 << 14;
};

/// K-bucket: ceil(log2(k)) for k >= 1, 0 otherwise — nearby operand
/// widths share a table row, distant ones do not.
int k_bucket(index_t k);

/// Key of one arm under one table row,
/// "<fp>|<workload>|k<bucket>|<choice>" — the key of each entry in
/// Router::to_json().
std::string route_key(const std::string& fingerprint, Workload w, index_t k,
                      const RouteChoice& choice);

class Router {
 public:
  explicit Router(RouterConfig cfg = {});

  /// Picks an arm for (fingerprint, workload, K). `arms` is the caller's
  /// candidate list; arms[0] must be the safe default. Empty arms (or a
  /// full table) return an unrouted default decision.
  Decision decide(const std::string& fingerprint, Workload w, index_t k,
                  const std::vector<RouteChoice>& arms);

  /// Records a measured latency for a decided execution.
  void observe(const std::string& fingerprint, Workload w, index_t k,
               const RouteChoice& choice, double us);

  // --- Arm builders (the policy of what is worth trying) ---------------

  /// SDDMM arms: default vs specialization off.
  static std::vector<RouteChoice> sddmm_arms();
  /// SpMM arms: sddmm_arms() plus sequential execution for matrices of
  /// at most 4096 rows.
  static std::vector<RouteChoice> spmm_arms(index_t rows);
  /// SpGEMM accumulator arms: config default, then hash and sort pinned.
  static std::vector<RouteChoice> spgemm_arms();
  /// Coalescing arms: configured max_batch (0) vs no coalescing (1).
  static std::vector<RouteChoice> coalesce_arms();

  /// Whole table as JSON: decision totals plus one entry per observed
  /// arm, keyed by route_key() and sorted by key.
  std::string to_json() const;

  std::uint64_t decisions() const;
  std::uint64_t explorations() const;
  std::size_t keys() const;

 private:
  struct Arm {
    RouteChoice choice;
    ArmStats stats;
  };
  struct KeyState {
    std::uint64_t counter = 0;  ///< decisions taken under this key
    std::vector<Arm> arms;      ///< first-seen order
  };

  /// The key's state, created on first use; null once max_keys are taken.
  KeyState* key_locked(const std::string& key);

  RouterConfig cfg_;
  mutable std::mutex m_;
  /// Keyed "<fp>|<workload>|k<bucket>" (route_key without the choice).
  std::unordered_map<std::string, KeyState> table_;
  std::uint64_t decisions_ = 0;
  std::uint64_t explorations_ = 0;
};

/// Builds a Router from RRSPMM_ROUTER: "on"/"1" builds one, unset,
/// "off" and "0" return null. Any other value (including retired
/// modes) returns null and warns on stderr, once per process, so a stale
/// setting is never ignored silently.
std::shared_ptr<Router> from_env();

}  // namespace rrspmm::router
