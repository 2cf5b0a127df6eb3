// Sharded SpMM execution on a WorkerPool.
//
// One task per device shard instead of one per panel: each shard is a
// contiguous (permuted) row range from a ShardPlan, run through the
// row-range ASpT kernel on the FULL tiled matrix, writing through the
// plan's row_perm straight into the caller's y. The kernel guarantees
// that any partition of [0, rows) into ranges is bitwise equal to the
// unsharded execution, so the sharded result is identical to
// core::run_spmm no matter how the planner cut — the shards only change
// who computes which rows.
#pragma once

#include <functional>
#include <optional>
#include <stdexcept>
#include <string>

#include "dist/shard_planner.hpp"
#include "runtime/execute.hpp"

namespace rrspmm::dist {

using sparse::CsrMatrix;

/// Thrown by ShardedExecutor::spmm when a batch cannot complete even with
/// failover: every device has failed, or re-planning exceeded
/// max_failover_rounds. The server's retry/degradation layer catches it.
class shards_exhausted : public std::runtime_error {
 public:
  explicit shards_exhausted(const std::string& what) : std::runtime_error(what) {}
};

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
  /// identical either way.
  std::optional<kernels::simd::KernelConfig> kernel;
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
  /// One sharded batch, shared by spmm() and spgemm(): cuts the plan's
  /// rows across the devices with cfg_.strategy and runs body(shard) for
  /// each on its device's node, with failover (see the class comment).
  /// Throws shards_exhausted when no device survives or the failover
  /// budget runs out.
  void run_sharded(runtime::WorkerPool& pool, const core::ExecutionPlan& plan,
                   runtime::Metrics* metrics,
                   const std::function<void(const core::RowShard&)>& body);

  ShardedExecutorConfig cfg_;
  ShardPlanner planner_;
};

}  // namespace rrspmm::dist
