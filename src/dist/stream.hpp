// Streaming shard execution: row-range SpMM straight off an .rrsb
// shard file, without ever materialising the whole matrix.
//
// The .rrsb block index carries per-block nonzero counts, so an
// nnz-balanced row partition can be planned from the index alone —
// the out-of-core analogue of ShardPlanner's nnz_balanced strategy,
// with cuts restricted to block boundaries (the on-disk unit of
// access, as panel boundaries are the in-memory one). Each shard's
// rows are then materialised as a slice and multiplied with the serial
// row-range kernel straight into the shard's Y rows; disjoint
// shards touch disjoint Y rows, and per-row accumulation order matches
// the resident kernel, so the result is bitwise equal to
// kernels::spmm_rowwise on the fully-loaded matrix.
#pragma once

#include "core/shard_plan.hpp"
#include "io/rrsb.hpp"
#include "sparse/dense_view.hpp"

namespace rrspmm::runtime {
class WorkerPool;
}

namespace rrspmm::dist {

/// nnz-balanced row partition of a shard file into `num_devices`
/// contiguous ranges, cut at block boundaries using only the index (no
/// block reads). Deterministic; empty shards appear when the file has
/// fewer blocks than devices. The result validates.
core::ShardPlan plan_stream_rows(const io::RrsbReader& shard, int num_devices);

/// Y = S * X where S lives in `shard`: every plan shard is sliced from
/// the file and multiplied into its Y rows. Sequential when
/// `pool` is null (at most one shard slice resident at a time);
/// otherwise shards fan out over the pool (at most one slice per
/// in-flight shard). Bitwise equal to spmm_rowwise on the resident
/// matrix either way.
void sharded_spmm_stream(const io::RrsbReader& shard, sparse::DenseView x,
                         sparse::DenseMutView y, const core::ShardPlan& plan,
                         runtime::WorkerPool* pool = nullptr);

}  // namespace rrspmm::dist
