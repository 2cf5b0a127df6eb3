// Sharded SpMM execution on a WorkerPool.
//
// One task per device shard instead of one per panel: each shard is a
// contiguous (permuted) row range from a ShardPlan, run through the
// row-range ASpT kernel on the FULL tiled matrix, writing through the
// plan's row_perm straight into the caller's y. The kernel guarantees
// that any partition of [0, rows) into ranges is bitwise equal to the
// unsharded execution, so the sharded result is identical to
// core::run_spmm no matter how the planner cut — the shards only change
// who computes which rows. Column mode computes partial products per
// column range and folds them device-by-device in ascending column
// order, which reproduces spmm_rowwise's per-row accumulation order
// exactly (CSR columns are sorted within a row), keeping that path
// bitwise-stable too.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "dist/shard_planner.hpp"
#include "router/router.hpp"
#include "runtime/execute.hpp"

namespace rrspmm::dist {

using sparse::CsrMatrix;
using sparse::DenseMatrix;

/// Thrown by ShardedExecutor::spmm when a batch cannot complete even with
/// failover: every device has failed, or re-planning exceeded
/// max_failover_rounds. The server's retry/degradation layer catches it.
class shards_exhausted : public std::runtime_error {
 public:
  explicit shards_exhausted(const std::string& what) : std::runtime_error(what) {}
};

/// Column-mode sharded SpMM on the raw CSR matrix: device d computes the
/// partial product of its column slice (rows split across the pool
/// within the device), and partials are accumulated sequentially in
/// ascending column order. Bitwise equal to kernels::spmm_rowwise.
void sharded_spmm_cols(runtime::WorkerPool& pool, const CsrMatrix& m, const ShardPlan& shard_plan,
                       const DenseMatrix& x, DenseMatrix& y,
                       runtime::Metrics* metrics = nullptr);

struct ShardedExecutorConfig {
  int num_devices = 2;
  ShardStrategy strategy = ShardStrategy::reorder_aware;
  ShardPlannerConfig planner;
  /// Failover budget per spmm() call: how many times failed shards may be
  /// re-planned onto surviving devices before the batch gives up with
  /// shards_exhausted. 0 disables failover entirely.
  int max_failover_rounds = 3;
  /// SIMD kernel selection for the shard row-range kernels; nullopt uses
  /// the process-wide simd::active_config(). Shard results are bitwise
  /// identical either way on the default (non-fma) path.
  std::optional<kernels::simd::KernelConfig> kernel;
  /// Adaptive-execution router for the shard-strategy decision: when set
  /// and the plan carries a fingerprint, each spmm()/spgemm() call asks
  /// it to pick among the three strategies (cfg.strategy offered as the
  /// default arm) and reports the measured batch makespan back. Failover
  /// re-cuts use the decided strategy too. Any strategy partitions the
  /// same bitwise-stable row ranges, so the decision never changes result
  /// bits. Null (the default) keeps the static cfg.strategy.
  std::shared_ptr<router::Router> router;
};

/// runtime::Executor that shards every batch across simulated devices.
/// Plugs into runtime::ServerConfig::executor; SpMM requests are cut by
/// the configured strategy, SDDMM falls back to the panel-parallel path
/// (the base-class default).
///
/// Failure handling: a shard that throws marks its device dead for the
/// rest of the call, and the shard's row range is re-planned across the
/// surviving devices with the same seam-aware cuts (plan_row_range). The
/// row-range kernel zero-fills its target rows (in the caller's y, through
/// row_perm) before accumulating, so a re-run of a failed shard is
/// idempotent and the recovered result stays bitwise-equal to the
/// fault-free one.
class ShardedExecutor final : public runtime::Executor {
 public:
  explicit ShardedExecutor(ShardedExecutorConfig cfg = {});

  /// View-based (zero-copy) entry point; owning callers convert
  /// implicitly. On a NUMA-aware pool each shard is dispatched to the
  /// node owning its device (device d → node d mod node_count), so a
  /// shard's staging and accumulation run next to the memory its worker
  /// first-touches; topology-blind pools keep the plain parallel_for.
  void spmm(runtime::WorkerPool& pool, const core::ExecutionPlan& plan, sparse::DenseView x,
            sparse::DenseMutView y, runtime::Metrics* metrics) override;

  /// CSR×CSR across the device shards: the symbolic phase runs
  /// pool-parallel (it is cheap and deterministic), then each shard's
  /// contiguous permuted row range fills its output segments via
  /// spgemm::numeric_rows. reorder_aware shard planning reuses the
  /// paper's LSH/cluster reordering of the LEFT operand, so one device's
  /// rows share B-row working sets. Shard failure handling is identical
  /// to spmm(): dead device, plan_row_range re-cut across survivors;
  /// numeric ranges rewrite their segments completely, so re-execution
  /// is idempotent and the recovered C is bitwise-equal.
  void spgemm(runtime::WorkerPool& pool, const core::ExecutionPlan& plan, const CsrMatrix& a,
              const CsrMatrix& b, CsrMatrix& c, runtime::Metrics* metrics,
              const spgemm::SpgemmConfig& cfg) override;

  const ShardedExecutorConfig& config() const { return cfg_; }

 private:
  /// One sharded batch, shared by spmm() and spgemm(): picks the shard
  /// strategy (router or cfg_.strategy), cuts the plan's rows across the
  /// devices and runs body(shard) for each on its device's node, with
  /// failover (see the class comment); reports the makespan to the
  /// router. Throws shards_exhausted when no device survives or the
  /// failover budget runs out.
  void run_sharded(runtime::WorkerPool& pool, const core::ExecutionPlan& plan, index_t k,
                   runtime::Metrics* metrics,
                   const std::function<void(const core::RowShard&)>& body);

  ShardedExecutorConfig cfg_;
  ShardPlanner planner_;
};

}  // namespace rrspmm::dist
