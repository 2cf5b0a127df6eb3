#include "core/shard_plan.hpp"

namespace rrspmm::core {

const char* to_string(ShardStrategy s) {
  switch (s) {
    case ShardStrategy::contiguous: return "contiguous";
    case ShardStrategy::nnz_balanced: return "nnz_balanced";
    case ShardStrategy::reorder_aware: return "reorder_aware";
  }
  return "?";
}

offset_t ShardPlan::total_nnz() const {
  offset_t total = 0;
  for (const RowShard& s : row_shards) total += s.nnz;
  return total;
}

void ShardPlan::validate() const {
  if (num_devices < 1) throw invalid_matrix("ShardPlan: num_devices must be >= 1");
  if (rows < 0 || cols < 0) throw invalid_matrix("ShardPlan: negative dimensions");
  if (static_cast<int>(row_shards.size()) != num_devices) {
    throw invalid_matrix("ShardPlan: row shard count != num_devices");
  }
  // Ranges must be contiguous, in order, and tile [0, rows) exactly once.
  index_t expect = 0;
  for (const RowShard& s : row_shards) {
    if (s.row_begin != expect || s.row_end < s.row_begin || s.row_end > rows) {
      throw invalid_matrix("ShardPlan: row shards must partition the rows exactly once");
    }
    if (s.nnz < 0) throw invalid_matrix("ShardPlan: negative shard nnz");
    expect = s.row_end;
  }
  if (expect != rows) throw invalid_matrix("ShardPlan: row shards do not cover the rows");
}

}  // namespace rrspmm::core
