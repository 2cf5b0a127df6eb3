#include "dist/shard_planner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sparse/stats.hpp"

namespace rrspmm::dist {

std::vector<offset_t> per_row_nnz(const aspt::AsptMatrix& tiled) {
  std::vector<offset_t> nnz(static_cast<std::size_t>(tiled.rows()), 0);
  for (const aspt::Panel& p : tiled.panels()) {
    for (index_t r = 0; r < p.rows(); ++r) {
      nnz[static_cast<std::size_t>(p.row_begin + r)] +=
          p.dense_rowptr[static_cast<std::size_t>(r) + 1] -
          p.dense_rowptr[static_cast<std::size_t>(r)];
    }
  }
  const sparse::CsrMatrix& sp = tiled.sparse_part();
  for (index_t i = 0; i < sp.rows(); ++i) {
    nnz[static_cast<std::size_t>(i)] += sp.row_nnz(i);
  }
  return nnz;
}

std::vector<index_t> row_columns(const aspt::AsptMatrix& tiled, index_t row) {
  std::vector<index_t> cols;
  // Panels partition the rows in order; find the one containing `row`.
  const auto& panels = tiled.panels();
  auto it = std::upper_bound(panels.begin(), panels.end(), row,
                             [](index_t r, const aspt::Panel& p) { return r < p.row_end; });
  if (it != panels.end() && row >= it->row_begin) {
    const aspt::Panel& p = *it;
    const auto r = static_cast<std::size_t>(row - p.row_begin);
    for (offset_t j = p.dense_rowptr[r]; j < p.dense_rowptr[r + 1]; ++j) {
      cols.push_back(p.dense_cols[static_cast<std::size_t>(p.dense_slot[static_cast<std::size_t>(j)])]);
    }
  }
  const auto sp_cols = tiled.sparse_part().row_cols(row);
  cols.insert(cols.end(), sp_cols.begin(), sp_cols.end());
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return cols;
}

namespace {

std::vector<offset_t> prefix_sum(const std::vector<offset_t>& weights) {
  std::vector<offset_t> prefix(weights.size() + 1, 0);
  for (std::size_t i = 0; i < weights.size(); ++i) prefix[i + 1] = prefix[i] + weights[i];
  return prefix;
}

/// Cut point of the d-th of n nnz-balanced shards over rows [lo, hi):
/// the smallest index r with prefix[r] >= prefix[lo] + range_nnz * d / n,
/// kept monotone against `floor_cut` and clamped to the range.
index_t balanced_cut(const std::vector<offset_t>& prefix, index_t lo, index_t hi, int d, int n,
                     index_t floor_cut) {
  const double base = static_cast<double>(prefix[static_cast<std::size_t>(lo)]);
  const double range_nnz =
      static_cast<double>(prefix[static_cast<std::size_t>(hi)]) - base;
  const double ideal = base + range_nnz * static_cast<double>(d) / static_cast<double>(n);
  const auto first = prefix.begin() + lo;
  const auto last = prefix.begin() + hi + 1;
  const auto it = std::lower_bound(first, last, static_cast<offset_t>(std::ceil(ideal)));
  auto cut = static_cast<index_t>(it - prefix.begin());
  cut = std::min(cut, hi);
  return std::max(cut, floor_cut);
}

/// One reorder_aware cut candidate: a panel boundary, its cumulative nnz
/// and the Jaccard similarity of the row pair it separates.
struct Boundary {
  index_t row = 0;
  offset_t cum = 0;
  double sim = 0.0;
};

}  // namespace

ShardPlan ShardPlanner::plan_rows(const core::ExecutionPlan& plan, int num_devices,
                                  ShardStrategy strategy) const {
  return plan_rows_impl(plan, 0, plan.tiled.rows(), num_devices, strategy, /*full_span=*/true);
}

ShardPlan ShardPlanner::plan_row_range(const core::ExecutionPlan& plan, index_t row_begin,
                                       index_t row_end, int num_devices,
                                       ShardStrategy strategy) const {
  if (row_begin < 0 || row_begin > row_end || row_end > plan.tiled.rows()) {
    throw sparse::invalid_matrix("ShardPlanner: row range outside the plan's row space");
  }
  return plan_rows_impl(plan, row_begin, row_end, num_devices, strategy, /*full_span=*/false);
}

ShardPlan ShardPlanner::plan_rows_impl(const core::ExecutionPlan& plan, index_t lo, index_t hi,
                                       int num_devices, ShardStrategy strategy,
                                       bool full_span) const {
  if (num_devices < 1) throw sparse::invalid_matrix("ShardPlanner: num_devices must be >= 1");
  const aspt::AsptMatrix& tiled = plan.tiled;
  const index_t rows = tiled.rows();
  const std::vector<offset_t> prefix = prefix_sum(per_row_nnz(tiled));
  const offset_t total =
      prefix[static_cast<std::size_t>(hi)] - prefix[static_cast<std::size_t>(lo)];

  std::vector<index_t> cuts(static_cast<std::size_t>(num_devices) + 1, lo);
  cuts.back() = hi;

  switch (strategy) {
    case ShardStrategy::contiguous:
      for (int d = 1; d < num_devices; ++d) {
        cuts[static_cast<std::size_t>(d)] = lo + static_cast<index_t>(
            static_cast<std::int64_t>(hi - lo) * d / num_devices);
      }
      break;

    case ShardStrategy::nnz_balanced:
      for (int d = 1; d < num_devices; ++d) {
        cuts[static_cast<std::size_t>(d)] =
            balanced_cut(prefix, lo, hi, d, num_devices, cuts[static_cast<std::size_t>(d) - 1]);
      }
      break;

    case ShardStrategy::reorder_aware: {
      // Candidates: panel boundaries strictly inside the range, scored by
      // the similarity of the row pair each one separates. A low score
      // means the cut falls between clusters.
      std::vector<Boundary> bounds;
      const auto& panels = tiled.panels();
      for (std::size_t pi = 0; pi + 1 < panels.size(); ++pi) {
        Boundary b;
        b.row = panels[pi].row_end;
        if (b.row <= lo || b.row >= hi) continue;
        b.cum = prefix[static_cast<std::size_t>(b.row)];
        const std::vector<index_t> above = row_columns(tiled, b.row - 1);
        const std::vector<index_t> below = row_columns(tiled, b.row);
        b.sim = sparse::jaccard({above.data(), above.size()}, {below.data(), below.size()});
        bounds.push_back(b);
      }

      const double base = static_cast<double>(prefix[static_cast<std::size_t>(lo)]);
      const double share = static_cast<double>(total) / static_cast<double>(num_devices);
      const double window = cfg_.balance_slack * share;
      for (int d = 1; d < num_devices; ++d) {
        const index_t prev = cuts[static_cast<std::size_t>(d) - 1];
        const double ideal = base + share * static_cast<double>(d);
        const Boundary* best = nullptr;
        bool best_in_window = false;
        for (const Boundary& b : bounds) {
          if (b.row <= prev) continue;
          const double dev = std::abs(static_cast<double>(b.cum) - ideal);
          const bool in_window = dev <= window;
          if (!best) {
            best = &b;
            best_in_window = in_window;
            continue;
          }
          const double best_dev = std::abs(static_cast<double>(best->cum) - ideal);
          bool better;
          if (in_window != best_in_window) {
            better = in_window;
          } else if (in_window) {
            // Inside the window rank by a balance-regularised seam
            // score. A pure lowest-sim rule would let a marginally
            // lower similarity (noise between two genuine seams) drag
            // the cut to the far edge of the window; the dev term keeps
            // near-equal seams ordered by balance while the large
            // seam-vs-mid-cluster similarity gap still dominates.
            const double score = b.sim + cfg_.seam_balance_weight * dev / share;
            const double best_score =
                best->sim + cfg_.seam_balance_weight * best_dev / share;
            better = score < best_score;
          } else {
            better = dev < best_dev;
          }
          if (better) {
            best = &b;
            best_in_window = in_window;
          }
        }
        // No boundary left: this shard takes the remainder and the rest
        // come out empty (more devices than panel seams).
        cuts[static_cast<std::size_t>(d)] = best ? best->row : hi;
      }
      break;
    }
  }

  ShardPlan sp;
  sp.strategy = strategy;
  sp.num_devices = num_devices;
  sp.rows = rows;
  sp.cols = tiled.cols();
  if (!full_span) {
    sp.span_begin = lo;
    sp.span_end = hi;
  }
  sp.row_shards.resize(static_cast<std::size_t>(num_devices));
  for (int d = 0; d < num_devices; ++d) {
    core::RowShard& s = sp.row_shards[static_cast<std::size_t>(d)];
    s.row_begin = cuts[static_cast<std::size_t>(d)];
    s.row_end = cuts[static_cast<std::size_t>(d) + 1];
    s.nnz = prefix[static_cast<std::size_t>(s.row_end)] - prefix[static_cast<std::size_t>(s.row_begin)];
  }
  sp.validate();
  return sp;
}

}  // namespace rrspmm::dist
