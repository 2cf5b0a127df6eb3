// Shard-plan types for multi-device execution (src/dist).
//
// A ShardPlan partitions one matrix across devices. Row mode assigns each
// device a contiguous range of rows *in the plan's permuted row space*
// (the row space of ExecutionPlan::tiled), which is where the reordering
// has made similar rows adjacent — so a shard boundary either respects or
// destroys the locality the transformation created.
//
// The types live in core (not dist) so that plan_io can serialise shard
// plans next to execution plans; the partitioning *logic* lives in
// dist::ShardPlanner, layered on top.
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/types.hpp"

namespace rrspmm::core {

/// How rows are assigned to devices.
enum class ShardStrategy : std::uint8_t {
  contiguous = 0,    ///< equal row counts; ignores nnz and panel structure
  nnz_balanced = 1,  ///< equal nonzero counts; may split an ASpT panel
  /// nnz-balanced, but cuts only at ASpT panel boundaries and prefers
  /// boundaries where consecutive-row Jaccard similarity is low — i.e.
  /// between clusters, never through one.
  reorder_aware = 2,
};

const char* to_string(ShardStrategy s);

/// One device's row range [row_begin, row_end) in permuted row space.
/// Empty ranges are legal (more devices than useful cut points).
struct RowShard {
  index_t row_begin = 0;
  index_t row_end = 0;
  offset_t nnz = 0;  ///< nonzeros of the range (dense tiles + sparse part)

  index_t rows() const { return row_end - row_begin; }
  bool operator==(const RowShard&) const = default;
};

struct ShardPlan {
  ShardStrategy strategy = ShardStrategy::nnz_balanced;
  int num_devices = 1;
  index_t rows = 0;  ///< row count of the partitioned matrix
  index_t cols = 0;  ///< column count of the partitioned matrix
  std::vector<RowShard> row_shards;  ///< size num_devices

  offset_t total_nnz() const;

  /// Checks the partition invariant: one shard per device, ranges
  /// contiguous and in order, together covering [0, rows) exactly once,
  /// nonzero counts non-negative.
  /// Throws invalid_matrix on the first violation.
  void validate() const;

  bool operator==(const ShardPlan&) const = default;
};

}  // namespace rrspmm::core
