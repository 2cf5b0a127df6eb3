#include "dist/stream.hpp"

#include <memory>

#include "kernels/simd/specialize.hpp"
#include "kernels/spmm.hpp"
#include "runtime/worker_pool.hpp"

namespace rrspmm::dist {

using sparse::invalid_matrix;

core::ShardPlan plan_stream_rows(const io::RrsbReader& shard, int num_devices) {
  if (num_devices <= 0) throw invalid_matrix("plan_stream_rows: num_devices must be positive");
  core::ShardPlan plan;
  plan.strategy = core::ShardStrategy::nnz_balanced;
  plan.num_devices = num_devices;
  plan.rows = shard.rows();
  plan.cols = shard.cols();
  plan.row_shards.resize(static_cast<std::size_t>(num_devices));

  // Greedy sweep over block boundaries: device d's shard ends at the
  // first boundary whose cumulative nnz reaches the ideal cumulative
  // share (d+1)/num_devices, leaving the remaining blocks to later
  // devices. Pure function of the index, so the plan is deterministic.
  const offset_t total = shard.nnz();
  index_t block = 0;
  index_t row_begin = 0;
  for (int d = 0; d < num_devices; ++d) {
    const offset_t target = total <= 0 ? 0 : (total * (d + 1)) / num_devices;
    if (d + 1 == num_devices) {
      block = shard.num_blocks();
    } else {
      while (block < shard.num_blocks() &&
             (block + 1 < shard.num_blocks() ? shard.nnz_before(block + 1) : total) < target) {
        ++block;
      }
      if (block < shard.num_blocks()) ++block;  // include the crossing block
    }
    const index_t row_end = block >= shard.num_blocks() ? shard.rows() : shard.block_begin(block);
    auto& s = plan.row_shards[static_cast<std::size_t>(d)];
    s.row_begin = row_begin;
    s.row_end = row_end;
    const offset_t lo = row_begin >= shard.rows() || shard.num_blocks() == 0
                            ? total
                            : shard.nnz_before(row_begin / shard.block_rows());
    const offset_t hi =
        row_end >= shard.rows() || shard.num_blocks() == 0
            ? total
            : shard.nnz_before(row_end / shard.block_rows());
    s.nnz = hi - lo;
    row_begin = row_end;
  }
  plan.validate();
  return plan;
}

void sharded_spmm_stream(const io::RrsbReader& shard, sparse::DenseView x, sparse::DenseMutView y,
                         const core::ShardPlan& plan, runtime::WorkerPool* pool) {
  if (plan.rows != shard.rows() || plan.cols != shard.cols()) {
    throw invalid_matrix("shard plan dimensions disagree with the shard file");
  }
  if (!x.valid() || !y.valid() || x.rows != shard.cols() || y.rows != shard.rows() ||
      y.cols != x.cols) {
    throw invalid_matrix("sharded_spmm_stream operand shape mismatch");
  }

  // One shard = one unit of work: slice, then multiply into a view of
  // the shard's own Y rows. The row-range kernel accumulates per row
  // exactly like the full kernel, and shards write disjoint rows, so any
  // shard partition (and any worker interleaving) produces identical Y
  // bits.
  // Streamed slices have no plan, so each shard builds its own
  // specialization record from the slice's row lengths — cheap (one
  // rowptr sweep) relative to the I/O that produced the slice.
  namespace simd = kernels::simd;
  const simd::KernelConfig active = simd::active_config();
  const auto run_shard = [&](const core::RowShard& s) {
    if (s.rows() <= 0) return;
    const sparse::CsrMatrix slice = shard.read_range(s.row_begin, s.row_end);
    const sparse::DenseMutView y_shard(y.row(s.row_begin), s.rows(), y.cols, y.ld);
    simd::KernelConfig cfg = active;
    if (cfg.spec_mode != simd::SpecMode::off) {
      cfg.spec = std::make_shared<const simd::SpecializationPlan>(simd::specialize_rows(slice));
    }
    kernels::spmm_rowwise(slice, x, y_shard, 0, slice.rows(), cfg);
  };

  if (pool != nullptr && pool->size() > 1 && plan.row_shards.size() > 1) {
    pool->parallel_for(plan.row_shards.size(),
                       [&](std::size_t i) { run_shard(plan.row_shards[i]); });
  } else {
    for (const core::RowShard& s : plan.row_shards) run_shard(s);
  }
}

}  // namespace rrspmm::dist
