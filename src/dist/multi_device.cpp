#include "dist/multi_device.hpp"

#include <algorithm>

#include "fault/fault.hpp"
#include "sparse/permute.hpp"

namespace rrspmm::dist {

namespace {

/// Renumbers the shard's original source indices to a dense [0, nnz)
/// range, preserving relative order. from_parts requires a bijection; the
/// shard's "source CSR" is the original value array restricted to its
/// rows, so rank order is the natural numbering.
void renumber_src(std::vector<aspt::Panel>& panels, std::vector<offset_t>& sparse_src) {
  std::vector<offset_t> sorted;
  for (const aspt::Panel& p : panels) {
    sorted.insert(sorted.end(), p.dense_src_idx.begin(), p.dense_src_idx.end());
  }
  sorted.insert(sorted.end(), sparse_src.begin(), sparse_src.end());
  std::sort(sorted.begin(), sorted.end());
  const auto rank = [&sorted](offset_t idx) {
    return static_cast<offset_t>(std::lower_bound(sorted.begin(), sorted.end(), idx) -
                                 sorted.begin());
  };
  for (aspt::Panel& p : panels) {
    for (offset_t& idx : p.dense_src_idx) idx = rank(idx);
  }
  for (offset_t& idx : sparse_src) idx = rank(idx);
}

}  // namespace

aspt::AsptMatrix extract_row_range(const aspt::AsptMatrix& a, index_t row_begin, index_t row_end) {
  if (row_begin < 0 || row_end > a.rows() || row_begin > row_end) {
    throw sparse::invalid_matrix("extract_row_range: range out of bounds");
  }
  const index_t n = row_end - row_begin;

  std::vector<aspt::Panel> panels;
  for (const aspt::Panel& p : a.panels()) {
    const index_t lo = std::max(row_begin, p.row_begin);
    const index_t hi = std::min(row_end, p.row_end);
    if (lo >= hi) continue;
    aspt::Panel q;
    q.row_begin = lo - row_begin;
    q.row_end = hi - row_begin;
    q.dense_cols = p.dense_cols;
    const auto first = static_cast<std::size_t>(lo - p.row_begin);
    const offset_t base = p.dense_rowptr[first];
    q.dense_rowptr.resize(static_cast<std::size_t>(hi - lo) + 1);
    for (std::size_t r = 0; r < q.dense_rowptr.size(); ++r) {
      q.dense_rowptr[r] = p.dense_rowptr[first + r] - base;
    }
    const auto lo_j = static_cast<std::size_t>(base);
    const auto hi_j = lo_j + static_cast<std::size_t>(q.dense_rowptr.back());
    q.dense_slot.assign(p.dense_slot.begin() + lo_j, p.dense_slot.begin() + hi_j);
    q.dense_val.assign(p.dense_val.begin() + lo_j, p.dense_val.begin() + hi_j);
    q.dense_src_idx.assign(p.dense_src_idx.begin() + lo_j, p.dense_src_idx.begin() + hi_j);
    panels.push_back(std::move(q));
  }

  const sparse::CsrMatrix& sp = a.sparse_part();
  const offset_t sp_base = sp.rowptr()[static_cast<std::size_t>(row_begin)];
  const offset_t sp_end = sp.rowptr()[static_cast<std::size_t>(row_end)];
  std::vector<offset_t> rowptr(static_cast<std::size_t>(n) + 1);
  for (std::size_t r = 0; r < rowptr.size(); ++r) {
    rowptr[r] = sp.rowptr()[static_cast<std::size_t>(row_begin) + r] - sp_base;
  }
  std::vector<index_t> colidx(sp.colidx().begin() + sp_base, sp.colidx().begin() + sp_end);
  std::vector<value_t> values(sp.values().begin() + sp_base, sp.values().begin() + sp_end);
  std::vector<offset_t> sparse_src(a.sparse_src_idx().begin() + sp_base,
                                   a.sparse_src_idx().begin() + sp_end);

  renumber_src(panels, sparse_src);
  sparse::CsrMatrix shard_sp(n, a.cols(), std::move(rowptr), std::move(colidx),
                             std::move(values));
  return aspt::AsptMatrix::from_parts(n, a.cols(), std::move(panels), std::move(shard_sp),
                                      std::move(sparse_src));
}

MultiDeviceResult simulate_spmm_sharded(const core::ExecutionPlan& plan,
                                        const core::ShardPlan& shard_plan, index_t k,
                                        const MultiDeviceConfig& cfg) {
  shard_plan.validate();
  if (shard_plan.rows != plan.tiled.rows()) {
    throw sparse::invalid_matrix("simulate_spmm_sharded: shard plan does not match the plan");
  }
  const bool identity_order = sparse::is_identity(plan.sparse_order);
  const Interconnect icx(cfg.interconnect);

  MultiDeviceResult res;
  res.strategy = shard_plan.strategy;
  res.num_devices = shard_plan.num_devices;

  std::vector<double> x_payloads, y_payloads;
  std::vector<char> col_seen(static_cast<std::size_t>(plan.tiled.cols()));
  for (int d = 0; d < shard_plan.num_devices; ++d) {
    const core::RowShard& s = shard_plan.row_shards[static_cast<std::size_t>(d)];
    ShardSim ss;
    ss.device = d;
    if (s.rows() > 0) {
      fault::hit_nothrow(fault::points::kShardStraggler);
      fault::hit(fault::points::kShardInterconnect);
      const aspt::AsptMatrix shard = extract_row_range(plan.tiled, s.row_begin, s.row_end);

      std::vector<index_t> order;
      if (!identity_order) {
        order.reserve(static_cast<std::size_t>(s.rows()));
        for (index_t r : plan.sparse_order) {
          if (r >= s.row_begin && r < s.row_end) order.push_back(r - s.row_begin);
        }
      }
      ss.kernel = gpusim::simulate_spmm_aspt(shard, k, cfg.device,
                                             identity_order ? nullptr : &order);

      // Operand payload: the distinct X rows this shard reads — every
      // column on its panels' staging lists plus its sparse columns.
      std::fill(col_seen.begin(), col_seen.end(), 0);
      std::size_t distinct = 0;
      const auto touch = [&](index_t c) {
        if (!col_seen[static_cast<std::size_t>(c)]) {
          col_seen[static_cast<std::size_t>(c)] = 1;
          ++distinct;
        }
      };
      for (const aspt::Panel& p : shard.panels()) {
        for (index_t c : p.dense_cols) touch(c);
      }
      for (index_t c : shard.sparse_part().colidx()) touch(c);
      ss.x_bytes = static_cast<double>(distinct) * static_cast<double>(k) * 4.0;
      ss.y_bytes = static_cast<double>(s.rows()) * static_cast<double>(k) * 4.0;
    }
    res.max_kernel_s = std::max(res.max_kernel_s, ss.kernel.time_s);
    res.kernel_total_s += ss.kernel.time_s;
    x_payloads.push_back(ss.x_bytes);
    y_payloads.push_back(ss.y_bytes);
    res.comm_bytes += ss.x_bytes + ss.y_bytes;
    res.shards.push_back(std::move(ss));
  }

  res.scatter_s = icx.scatter_time(x_payloads);
  res.collect_s = icx.gather_time(y_payloads);
  res.makespan_s = res.scatter_s + res.max_kernel_s + res.collect_s;
  return res;
}

}  // namespace rrspmm::dist
