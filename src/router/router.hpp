// Cost-model-driven adaptive execution: a per-plan router that turns
// measured latency into closed-loop kernel/batch decisions.
//
// The paper's thesis is that the right layout and execution strategy
// depend on the matrix; the repo has every knob that thesis implies
// (scalar vs SIMD ISA, AOT-specialized variants, hash/sort SpGEMM
// accumulators, batch coalescing) but picked them statically until now.
// The Router closes the loop, AHAS-style: a cost table keyed on
//
//   (matrix fingerprint, workload, ceil-log2 K bucket)
//
// maps candidate configurations ("arms") to measured latency stats.
// The Server asks it to decide() before each batch and observe() the
// measured latency after — a deterministic epsilon-greedy bandit per
// key. Seeding comes from the BENCH_*.json
// trajectories (calibration.hpp) as fingerprint-agnostic priors, and
// learned entries ride the ExecutionPlan through plan files (v4) as
// core::RouteRecord, so a redeployed plan starts warm.
//
// Routing never changes result bits: every arm is one of the existing
// bitwise-guarded execution paths (specialization on/off, accumulator,
// sequential fallback, coalescing width), all of which
// preserve the scalar reference's per-element accumulation order on the
// non-fma path. The router only chooses *which* of the bit-identical
// paths runs, so bitwise/chaos CI contracts hold with it enabled.
//
// Determinism: online mode explores on a per-key decision counter (fill
// each arm to min_samples round-robin, then every explore_period-th
// decision probes the next arm) — no wall clock, no RNG, so a replay
// with the same request sequence makes the same decisions. Frozen mode
// (RRSPMM_ROUTER=frozen) never updates the table and never explores:
// decisions are a pure function of the loaded table, identical across
// thread counts, process restarts, and plan-cache eviction/reload.
//
// Env knobs (read by from_env()):
//   RRSPMM_ROUTER       = off (default) | on | frozen
//   RRSPMM_ROUTER_TABLE = path to a saved table (save_table_file) loaded
//                         at construction; with "frozen" this is the
//                         whole cost model.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/pipeline.hpp"
#include "runtime/metrics.hpp"
#include "sparse/types.hpp"

namespace rrspmm::router {

/// Workloads routed independently (same matrix, different cost shape).
/// Id 3 was the retired shard-strategy workload; saved entries under it
/// load and are dropped.
enum class Workload : std::uint8_t {
  spmm = 0,      ///< server SpMM batches (kernel variant + threads)
  sddmm = 1,     ///< server SDDMM requests (kernel variant)
  spgemm = 2,    ///< server SpGEMM requests (accumulator)
  coalesce = 4,  ///< server batch formation (coalescing width)
};
/// One past the largest workload id a saved table or plan may carry.
inline constexpr std::size_t kWorkloadCount = 5;
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

  /// Compact stable encoding, e.g. "s2g0d255t0b0a255" — the arm's
  /// identity in tables, metrics keys, and saved files. The "g" (retired
  /// micro-GEMM) and "d" (retired shard strategy) fields are always
  /// written as 0 and 255.
  std::string key() const;
  /// Inverse of key(); false on malformed input and on the retired
  /// micro-GEMM (g1), spec-all (s3) and shard-strategy (d != 255) arms.
  static bool parse(const std::string& s, RouteChoice& out);
  bool operator==(const RouteChoice& o) const {
    return spec_mode == o.spec_mode && threads == o.threads && batch == o.batch &&
           accumulator == o.accumulator;
  }
  bool operator!=(const RouteChoice& o) const { return !(*this == o); }
};

/// Latency statistics of one arm under one key.
using ArmStats = runtime::LatencyStats;

struct Decision {
  RouteChoice choice;
  bool routed = false;    ///< false: router off or table full — caller's defaults ran
  bool explored = false;  ///< true: this pick samples, it is not the argmin
};

struct RouterConfig {
  /// Frozen: pure table lookups, no exploration, no updates.
  bool frozen = false;
  /// Online: every arm is sampled this many times (round-robin) before
  /// exploitation starts for a key.
  std::uint32_t min_samples = 2;
  /// Online: every explore_period-th decision of a key re-probes arms in
  /// rotation so a drifting workload can re-converge. 0 disables.
  std::uint32_t explore_period = 16;
  /// Bound on distinct (fingerprint, workload, k-bucket) keys; new keys
  /// beyond it fall back to the default arm unrouted.
  std::size_t max_keys = 1 << 14;
};

/// K-bucket: ceil(log2(k)) for k >= 1, 0 otherwise — nearby operand
/// widths share a table row, distant ones do not.
int k_bucket(index_t k);

/// Contextual features of the routed matrix beyond the operand width:
/// coarse nnz/row moments (mean + p90), 4 buckets each. A
/// default-constructed context is "no context" and reproduces the pure
/// K-bucket keying, so pre-contextual tables and plan files keep
/// working untouched.
struct RouteContext {
  std::uint8_t mean_bucket = 0;  ///< mean nnz/row: <2, <8, <32, >=32
  std::uint8_t p90_bucket = 0;   ///< p90 nnz/row: <4, <16, <64, >=64
  bool contextual = false;

  bool operator==(const RouteContext& o) const {
    return contextual == o.contextual && mean_bucket == o.mean_bucket &&
           p90_bucket == o.p90_bucket;
  }
};

/// Buckets the nnz/row moments (thresholds above).
RouteContext make_route_context(double mean_nnz_row, double p90_nnz_row);

/// Packs (K bucket, context) into the one integer bucket dimension the
/// table/plan-file formats already carry: plain k_bucket(k) without
/// context (values 0..63), 64*(1 + mean*4 + p90) + k_bucket(k) with.
/// Both round-trip through "rrspmm-router-table v1" and RouteRecord
/// untouched — the packing is why the satellite's backward-compat
/// requirement holds by construction.
int ctx_bucket(index_t k, const RouteContext& ctx);

/// Metrics attribution key of one decided execution:
/// "<fp>|<workload>|k<bucket>[m<mean>p<p90>]|<choice>" (the bracketed
/// context part appears only for contextual decisions).
std::string route_key(const std::string& fingerprint, Workload w, index_t k,
                      const RouteChoice& choice);
std::string route_key(const std::string& fingerprint, Workload w, index_t k,
                      const RouteContext& ctx, const RouteChoice& choice);

class Router {
 public:
  explicit Router(RouterConfig cfg = {});

  const RouterConfig& config() const { return cfg_; }
  bool frozen() const { return cfg_.frozen; }

  /// Picks an arm for (fingerprint, workload, K). `arms` is the caller's
  /// candidate list; arms[0] must be the safe default. Empty arms (or a
  /// full table) return an unrouted default decision. The contextual
  /// overload keys on ctx_bucket(k, ctx); arms with no observations
  /// under the contextual key fall back to the legacy pure-K key's
  /// stats, then the fingerprint-agnostic priors, so a pre-contextual
  /// table still seeds contextual decisions.
  Decision decide(const std::string& fingerprint, Workload w, index_t k,
                  const std::vector<RouteChoice>& arms);
  Decision decide(const std::string& fingerprint, Workload w, index_t k,
                  const RouteContext& ctx, const std::vector<RouteChoice>& arms);

  /// Records a measured latency for a decided execution. No-op when
  /// frozen (the table is the contract).
  void observe(const std::string& fingerprint, Workload w, index_t k,
               const RouteChoice& choice, double us);
  void observe(const std::string& fingerprint, Workload w, index_t k, const RouteContext& ctx,
               const RouteChoice& choice, double us);

  /// Read-only best arm across every K-bucket of (fingerprint, w),
  /// weighted by sample count; `fallback` when nothing is known. Used by
  /// batch formation, which runs before the operand width is known.
  RouteChoice preferred(const std::string& fingerprint, Workload w,
                        const RouteChoice& fallback) const;

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

  // --- Seeding and persistence ----------------------------------------

  /// Installs a fingerprint-agnostic prior: arms with no per-matrix
  /// observations score by these means in decide(). `weight` counts as
  /// that many observations when later measurements merge in.
  void install_prior(Workload w, int bucket, const RouteChoice& choice, double mean_us,
                     std::uint64_t weight = 1);

  /// Parses one BENCH_{kernels,spgemm,serving}.json payload and
  /// installs fingerprint-agnostic priors (see calibration.hpp).
  /// Returns the number of prior entries installed.
  std::size_t load_calibration_json(const std::string& json);
  std::size_t load_calibration_file(const std::string& path);

  /// Plain-text table round trip ("rrspmm-router-table v1"). load_table
  /// merges into the current table and returns the entries merged;
  /// retired arms are skipped and not counted.
  void save_table(std::ostream& out) const;
  std::size_t load_table(std::istream& in);
  void save_table_file(const std::string& path) const;
  std::size_t load_table_file(const std::string& path);

  /// Learned entries of one fingerprint as plan-portable RouteRecords
  /// (plan-file v4), and the inverse. import returns entries merged;
  /// retired arms are skipped and not counted.
  std::vector<core::RouteRecord> export_records(const std::string& fingerprint) const;
  std::size_t import_records(const std::string& fingerprint,
                             const std::vector<core::RouteRecord>& records);

  /// Whole table as JSON (diagnostics; shape mirrors Metrics::to_json).
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
    std::vector<Arm> arms;      ///< caller order preserved; arms[0] = default
  };

  // Key layout: "<fingerprint>|<workload>|<k_bucket>"; priors live under
  // the empty fingerprint and are consulted for arms with no local data.
  static std::string table_key(const std::string& fingerprint, Workload w, int bucket);
  KeyState* find_locked(const std::string& key);
  const KeyState* find_locked(const std::string& key) const;
  Arm& arm_locked(KeyState& ks, const RouteChoice& choice);
  const ArmStats* prior_locked(Workload w, int bucket, const RouteChoice& choice) const;

  RouterConfig cfg_;
  mutable std::mutex m_;
  std::unordered_map<std::string, KeyState> table_;
  std::uint64_t decisions_ = 0;
  std::uint64_t explorations_ = 0;
};

/// Builds a Router from RRSPMM_ROUTER / RRSPMM_ROUTER_TABLE; null when
/// the knob is unset/off. A table path that fails to load warns on
/// stderr and continues (serving must not die for a stale table file).
std::shared_ptr<Router> from_env();

}  // namespace rrspmm::router
