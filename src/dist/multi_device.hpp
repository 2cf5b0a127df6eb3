// Multi-device sharded-execution simulator.
//
// Instantiates one DeviceConfig (and, inside gpusim, one private L2) per
// shard and composes per-shard kernel estimates with interconnect
// transfer time into a makespan: scatter X slices -> per-device kernels
// -> gather Y shards.
//
// The X payload of a row shard is what that shard actually reads — its
// distinct referenced columns (dense panel staging lists plus sparse
// columns) times K — so a partition that splits a Jaccard cluster across
// devices pays for the cluster's X rows twice, on the wire and in each
// device's cold L2. That is the multi-GPU restatement of the paper's
// single-GPU argument, and it is why reorder-aware shards beat
// nnz-balanced ones on shuffled-clustered matrices.
#pragma once

#include <vector>

#include "core/pipeline.hpp"
#include "core/shard_plan.hpp"
#include "dist/interconnect.hpp"
#include "gpusim/device.hpp"
#include "gpusim/traffic.hpp"

namespace rrspmm::dist {

struct MultiDeviceConfig {
  gpusim::DeviceConfig device = gpusim::DeviceConfig::p100();  ///< per-shard device
  InterconnectConfig interconnect = InterconnectConfig::nvlink();
};

/// One device's share of a sharded execution.
struct ShardSim {
  int device = 0;
  gpusim::SimResult kernel;  ///< traffic simulation on this device alone
  double x_bytes = 0.0;      ///< dense-operand payload scattered to it
  double y_bytes = 0.0;      ///< result payload it sends back
};

struct MultiDeviceResult {
  core::ShardStrategy strategy = core::ShardStrategy::nnz_balanced;
  int num_devices = 1;
  std::vector<ShardSim> shards;
  double scatter_s = 0.0;       ///< distributing the dense operand
  double collect_s = 0.0;       ///< gathering Y shards
  double max_kernel_s = 0.0;    ///< slowest device's kernel time
  double kernel_total_s = 0.0;  ///< summed kernel time (total device-seconds)
  double comm_bytes = 0.0;      ///< total bytes over the interconnect
  /// scatter + slowest kernel + collect: end-to-end latency of one
  /// sharded SpMM (collectives do not overlap compute in this model).
  double makespan_s = 0.0;
};

/// Extracts rows [row_begin, row_end) of a tiled matrix as a standalone
/// AsptMatrix (panels clipped at the range ends, source indices
/// renumbered to the shard's own nonzero space). A clipped panel keeps
/// its full dense-column list — each half re-stages the same X rows,
/// which is exactly the duplicated work a mid-panel shard boundary
/// causes on real hardware.
aspt::AsptMatrix extract_row_range(const aspt::AsptMatrix& a, index_t row_begin, index_t row_end);

/// Sharded SpMM estimate: `shard_plan` must match `plan`'s permuted row
/// space. `plan.sparse_order` is restricted
/// per shard, so round-2 reordering keeps its effect device-locally.
MultiDeviceResult simulate_spmm_sharded(const core::ExecutionPlan& plan,
                                        const core::ShardPlan& shard_plan, index_t k,
                                        const MultiDeviceConfig& cfg);

}  // namespace rrspmm::dist
