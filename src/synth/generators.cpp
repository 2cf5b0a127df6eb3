#include "synth/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/permute.hpp"
#include "synth/rng.hpp"

namespace rrspmm::synth {

using sparse::CooMatrix;

CsrMatrix erdos_renyi(index_t rows, index_t cols, offset_t nnz_target, std::uint64_t seed) {
  Rng rng(seed);
  CooMatrix coo(rows, cols);
  coo.reserve(nnz_target);
  for (offset_t k = 0; k < nnz_target; ++k) {
    const auto r = static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(rows)));
    const auto c = static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(cols)));
    coo.add(r, c, rng.next_signed_float());
  }
  return CsrMatrix::from_coo(std::move(coo));
}

CsrMatrix rmat(index_t scale, offset_t nnz_target, std::uint64_t seed, RmatParams p) {
  Rng rng(seed);
  const index_t n = index_t{1} << scale;
  CooMatrix coo(n, n);
  coo.reserve(nnz_target);
  for (offset_t k = 0; k < nnz_target; ++k) {
    index_t r = 0, c = 0;
    for (index_t bit = 0; bit < scale; ++bit) {
      const double u = rng.next_double();
      r <<= 1;
      c <<= 1;
      if (u < p.a) {
        // upper-left: nothing to add
      } else if (u < p.a + p.b) {
        c |= 1;
      } else if (u < p.a + p.b + p.c) {
        r |= 1;
      } else {
        r |= 1;
        c |= 1;
      }
    }
    coo.add(r, c, rng.next_signed_float());
  }
  return CsrMatrix::from_coo(std::move(coo));
}

CsrMatrix chung_lu(index_t rows, index_t cols, double avg_degree, double gamma,
                   std::uint64_t seed) {
  Rng rng(seed);
  // Expected column weights w_c ∝ c^{-1/(gamma-1)} (standard power-law
  // weight sequence), normalised so the expected total nnz is
  // rows * avg_degree.
  std::vector<double> w(static_cast<std::size_t>(cols));
  const double alpha = 1.0 / (gamma - 1.0);
  double total = 0.0;
  for (index_t c = 0; c < cols; ++c) {
    w[static_cast<std::size_t>(c)] = std::pow(static_cast<double>(c) + 1.0, -alpha);
    total += w[static_cast<std::size_t>(c)];
  }
  // Cumulative distribution for inverse-transform sampling of columns.
  std::vector<double> cdf(w.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    acc += w[i] / total;
    cdf[i] = acc;
  }
  cdf.back() = 1.0;

  CooMatrix coo(rows, cols);
  const auto nnz_target = static_cast<offset_t>(static_cast<double>(rows) * avg_degree);
  coo.reserve(nnz_target);
  for (offset_t k = 0; k < nnz_target; ++k) {
    const auto r = static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(rows)));
    const double u = rng.next_double();
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    const auto c = static_cast<index_t>(std::distance(cdf.begin(), it));
    coo.add(r, std::min(c, static_cast<index_t>(cols - 1)), rng.next_signed_float());
  }
  return CsrMatrix::from_coo(std::move(coo));
}

CsrMatrix banded(index_t n, index_t bandwidth, double fill, std::uint64_t seed) {
  Rng rng(seed);
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    const index_t lo = std::max(index_t{0}, static_cast<index_t>(i - bandwidth));
    const index_t hi = std::min(static_cast<index_t>(n - 1), static_cast<index_t>(i + bandwidth));
    for (index_t c = lo; c <= hi; ++c) {
      if (c == i || rng.next_double() < fill) coo.add(i, c, rng.next_signed_float());
    }
  }
  return CsrMatrix::from_coo(std::move(coo));
}

CsrMatrix diagonal(index_t n) {
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) coo.add(i, i, 1.0f);
  return CsrMatrix::from_coo(std::move(coo));
}

CsrMatrix clustered_rows(const ClusteredParams& p, std::uint64_t seed) {
  Rng rng(seed);
  if (p.num_groups <= 0 || p.rows <= 0) throw sparse::invalid_matrix("bad clustered params");

  // Column pool per group: either `group_cols` columns sampled without
  // replacement from the full column range (pools may overlap), or the
  // group's own contiguous column block.
  std::vector<std::vector<index_t>> pools(static_cast<std::size_t>(p.num_groups));
  if (p.disjoint_pools) {
    if (p.num_groups * p.group_cols > p.cols) {
      throw sparse::invalid_matrix("disjoint_pools needs num_groups*group_cols <= cols");
    }
    for (index_t g = 0; g < p.num_groups; ++g) {
      auto& pool = pools[static_cast<std::size_t>(g)];
      pool.reserve(static_cast<std::size_t>(p.group_cols));
      for (index_t k = 0; k < p.group_cols; ++k) pool.push_back(g * p.group_cols + k);
    }
  } else {
    std::unordered_set<index_t> taken;
    for (auto& pool : pools) {
      taken.clear();
      pool.reserve(static_cast<std::size_t>(p.group_cols));
      while (static_cast<index_t>(pool.size()) < p.group_cols) {
        const auto c = static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(p.cols)));
        if (taken.insert(c).second) pool.push_back(c);
      }
    }
  }

  // Group assignment: contiguous blocks, optionally scattered afterwards.
  std::vector<index_t> group_of(static_cast<std::size_t>(p.rows));
  for (index_t i = 0; i < p.rows; ++i) {
    group_of[static_cast<std::size_t>(i)] =
        static_cast<index_t>((static_cast<std::int64_t>(i) * p.num_groups) / p.rows);
  }
  if (p.scatter) {
    // Fisher–Yates on the assignment vector.
    for (std::size_t i = group_of.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(rng.next_below(i));
      std::swap(group_of[i - 1], group_of[j]);
    }
  }

  CooMatrix coo(p.rows, p.cols);
  coo.reserve(static_cast<offset_t>(p.rows) * (p.row_nnz + p.noise_nnz));
  std::unordered_set<index_t> used;
  for (index_t i = 0; i < p.rows; ++i) {
    const auto& pool = pools[static_cast<std::size_t>(group_of[static_cast<std::size_t>(i)])];
    used.clear();
    index_t placed = 0;
    while (placed < p.row_nnz && static_cast<index_t>(used.size()) < p.group_cols) {
      const index_t c = pool[rng.next_below(pool.size())];
      if (used.insert(c).second) {
        coo.add(i, c, rng.next_signed_float());
        ++placed;
      }
    }
    for (index_t k = 0; k < p.noise_nnz; ++k) {
      const auto c = static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(p.cols)));
      if (used.insert(c).second) coo.add(i, c, rng.next_signed_float());
    }
  }
  return CsrMatrix::from_coo(std::move(coo));
}

CsrMatrix gnn_frontier(const GnnFrontierParams& p, std::uint64_t seed) {
  Rng rng(seed);
  if (p.nodes <= 0 || p.communities <= 0 || p.fanout <= 0) {
    throw sparse::invalid_matrix("bad gnn_frontier params");
  }
  if (p.hub_cols < 0 || p.hub_cols >= p.nodes) {
    throw sparse::invalid_matrix("gnn_frontier needs 0 <= hub_cols < nodes");
  }

  // Hubs occupy the first `hub_cols` columns; each community owns an
  // equal contiguous block of the remainder.
  const index_t block = std::max(index_t{1}, static_cast<index_t>((p.nodes - p.hub_cols) / p.communities));

  // Community assignment: contiguous blocks scattered through the row
  // order (same idiom as clustered_rows with scatter=true).
  std::vector<index_t> community_of(static_cast<std::size_t>(p.nodes));
  for (index_t i = 0; i < p.nodes; ++i) {
    community_of[static_cast<std::size_t>(i)] =
        static_cast<index_t>((static_cast<std::int64_t>(i) * p.communities) / p.nodes);
  }
  for (std::size_t i = community_of.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.next_below(i));
    std::swap(community_of[i - 1], community_of[j]);
  }

  CooMatrix coo(p.nodes, p.nodes);
  coo.reserve(static_cast<offset_t>(p.nodes) * p.fanout);
  std::unordered_set<index_t> used;
  for (index_t i = 0; i < p.nodes; ++i) {
    const index_t base = static_cast<index_t>(
        p.hub_cols + community_of[static_cast<std::size_t>(i)] * block);
    used.clear();
    index_t placed = 0;
    // Cap the attempts so tiny blocks plus few hubs cannot spin forever.
    const index_t attempts = static_cast<index_t>(8 * p.fanout + 64);
    for (index_t t = 0; t < attempts && placed < p.fanout; ++t) {
      index_t c;
      if (p.hub_cols > 0 && rng.next_double() < p.hub_prob) {
        c = static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(p.hub_cols)));
      } else {
        c = static_cast<index_t>(base + rng.next_below(static_cast<std::uint64_t>(block)));
      }
      if (c >= p.nodes) c = static_cast<index_t>(p.nodes - 1);
      if (used.insert(c).second) {
        coo.add(i, c, rng.next_signed_float());
        ++placed;
      }
    }
  }
  return CsrMatrix::from_coo(std::move(coo));
}

CsrMatrix scrna_cells(const ScrnaParams& p, std::uint64_t seed) {
  Rng rng(seed);
  if (p.cells <= 0 || p.genes <= 0 || p.cell_types <= 0 || p.expr_per_cell <= 0) {
    throw sparse::invalid_matrix("bad scrna params");
  }
  if (p.housekeeping < 0 || p.housekeeping >= p.genes ||
      p.markers_per_type <= 0 || p.markers_per_type > p.genes - p.housekeeping) {
    throw sparse::invalid_matrix("scrna needs 0 <= housekeeping and markers within the gene range");
  }

  // Marker pools: markers_per_type genes per type, sampled without
  // replacement from the non-housekeeping columns (pools may overlap —
  // related cell lineages share markers).
  std::vector<std::vector<index_t>> markers(static_cast<std::size_t>(p.cell_types));
  std::unordered_set<index_t> taken;
  for (auto& pool : markers) {
    taken.clear();
    pool.reserve(static_cast<std::size_t>(p.markers_per_type));
    while (static_cast<index_t>(pool.size()) < p.markers_per_type) {
      const auto c = static_cast<index_t>(
          p.housekeeping + rng.next_below(static_cast<std::uint64_t>(p.genes - p.housekeeping)));
      if (taken.insert(c).second) pool.push_back(c);
    }
  }

  // Type assignment: contiguous blocks scattered through the row order
  // (same idiom as clustered_rows with scatter=true).
  std::vector<index_t> type_of(static_cast<std::size_t>(p.cells));
  for (index_t i = 0; i < p.cells; ++i) {
    type_of[static_cast<std::size_t>(i)] =
        static_cast<index_t>((static_cast<std::int64_t>(i) * p.cell_types) / p.cells);
  }
  for (std::size_t i = type_of.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.next_below(i));
    std::swap(type_of[i - 1], type_of[j]);
  }

  CooMatrix coo(p.cells, p.genes);
  coo.reserve(static_cast<offset_t>(p.cells) * p.expr_per_cell);
  std::unordered_set<index_t> used;
  for (index_t i = 0; i < p.cells; ++i) {
    const auto& pool = markers[static_cast<std::size_t>(type_of[static_cast<std::size_t>(i)])];
    used.clear();
    index_t placed = 0;
    // Cap the attempts so tiny gene pools cannot spin forever.
    const index_t attempts = static_cast<index_t>(8 * p.expr_per_cell + 64);
    for (index_t t = 0; t < attempts && placed < p.expr_per_cell; ++t) {
      index_t c;
      if (p.housekeeping > 0 && rng.next_double() < p.housekeeping_prob) {
        c = static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(p.housekeeping)));
      } else {
        c = pool[rng.next_below(pool.size())];
      }
      if (used.insert(c).second) {
        // UMI-style small positive counts.
        coo.add(i, c, static_cast<float>(1 + rng.next_below(8)));
        ++placed;
      }
    }
  }
  return CsrMatrix::from_coo(std::move(coo));
}

CsrMatrix dlmc_pruned(const DlmcParams& p, std::uint64_t seed) {
  Rng rng(seed);
  if (p.rows <= 0 || p.cols <= 0 || p.density <= 0.0 || p.density > 1.0 || p.skew < 1.0) {
    throw sparse::invalid_matrix("bad dlmc params");
  }

  const auto row_nnz = std::max<index_t>(
      1, static_cast<index_t>(static_cast<double>(p.cols) * p.density));
  CooMatrix coo(p.rows, p.cols);
  coo.reserve(static_cast<offset_t>(p.rows) * row_nnz);
  std::unordered_set<index_t> used;
  for (index_t i = 0; i < p.rows; ++i) {
    used.clear();
    index_t placed = 0;
    const index_t attempts = static_cast<index_t>(8 * row_nnz + 64);
    for (index_t t = 0; t < attempts && placed < row_nnz; ++t) {
      // Inverse-transform draw from the popularity law: low columns
      // (important output neurons) are kept by many rows.
      const double u = rng.next_double();
      auto c = static_cast<index_t>(static_cast<double>(p.cols) * std::pow(u, p.skew));
      if (c >= p.cols) c = static_cast<index_t>(p.cols - 1);
      if (used.insert(c).second) {
        coo.add(i, c, rng.next_signed_float());
        ++placed;
      }
    }
  }
  return CsrMatrix::from_coo(std::move(coo));
}

CsrMatrix shuffle_rows(const CsrMatrix& m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<index_t> perm = sparse::identity_permutation(m.rows());
  for (std::size_t i = perm.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.next_below(i));
    std::swap(perm[i - 1], perm[j]);
  }
  return sparse::permute_rows(m, perm);
}

}  // namespace rrspmm::synth
