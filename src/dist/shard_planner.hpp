// Reorder-aware multi-device partitioner.
//
// Partitions an ExecutionPlan's (permuted) row space across devices. The
// interesting strategy is reorder_aware: after the paper's round-1
// reordering, rows of one Jaccard cluster are adjacent, and the ASpT
// tiling builds its dense tiles on panels of those adjacent rows. A shard
// boundary through a panel duplicates that panel's dense-column staging
// on two devices; a boundary through a cluster duplicates the cluster's
// X-row working set in two devices' L2s and in two devices' operand
// transfers. reorder_aware therefore cuts only at panel boundaries, and
// among the boundaries that keep the nonzero load balanced it picks the
// one with the lowest Jaccard similarity across the cut — the seam
// between clusters, not the middle of one.
#pragma once

#include <vector>

#include "core/pipeline.hpp"
#include "core/shard_plan.hpp"

namespace rrspmm::dist {

using core::ShardPlan;
using core::ShardStrategy;

struct ShardPlannerConfig {
  /// reorder_aware balance window: a panel boundary qualifies as a cut
  /// candidate if its cumulative-nnz deviation from the ideal cut is at
  /// most this fraction of one device's nnz share. Within the window the
  /// lowest balance-regularised score wins; with an empty window the
  /// nearest boundary is taken regardless of similarity.
  double balance_slack = 0.25;
  /// Weight of the balance term in the in-window score
  /// `sim + seam_balance_weight * dev / share`. Cluster seams differ from
  /// mid-cluster boundaries by a large similarity gap, so a modest weight
  /// keeps seam preference intact while stopping a marginally lower sim
  /// from dragging the cut to the far edge of the balance window.
  double seam_balance_weight = 0.25;
};

class ShardPlanner {
 public:
  explicit ShardPlanner(ShardPlannerConfig cfg = {}) : cfg_(cfg) {}

  /// Partition of `plan`'s permuted row space into
  /// `num_devices` contiguous ranges under `strategy`. Deterministic;
  /// empty shards are produced when the matrix offers fewer useful cut
  /// points than devices. The result validates.
  ShardPlan plan_rows(const core::ExecutionPlan& plan, int num_devices,
                      ShardStrategy strategy) const;

 private:
  ShardPlannerConfig cfg_;
};

/// Nonzeros of each permuted row of a tiled matrix (dense tiles plus
/// sparse remainder) — the weight the balancing strategies cut on.
std::vector<offset_t> per_row_nnz(const aspt::AsptMatrix& tiled);

/// Sorted distinct column ids touched by row `row` (global index) of a
/// tiled matrix: its dense nonzeros' columns plus its sparse-part
/// columns. Used for boundary-similarity scoring and operand-transfer
/// accounting.
std::vector<index_t> row_columns(const aspt::AsptMatrix& tiled, index_t row);

}  // namespace rrspmm::dist
