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
  const index_t lo = span_lo();
  const index_t hi = span_hi();
  if (lo < 0 || lo > hi || hi > rows) {
    throw invalid_matrix("ShardPlan: span must lie inside the row range");
  }
  if (static_cast<int>(row_shards.size()) != num_devices) {
    throw invalid_matrix("ShardPlan: row shard count != num_devices");
  }
  // Ranges must be contiguous, in order, and tile [lo, hi) exactly once.
  index_t expect = lo;
  for (const RowShard& s : row_shards) {
    if (s.row_begin != expect || s.row_end < s.row_begin || s.row_end > hi) {
      throw invalid_matrix("ShardPlan: row shards must partition the span exactly once");
    }
    if (s.nnz < 0) throw invalid_matrix("ShardPlan: negative shard nnz");
    expect = s.row_end;
  }
  if (expect != hi) throw invalid_matrix("ShardPlan: row shards do not cover the span");
}

}  // namespace rrspmm::core
