// Adaptive Sparse Tiling (Hong et al., PPoPP'19) — reimplemented here as
// the substrate the paper's row-reordering feeds into (paper §2.3).
//
// The matrix is cut into panels of `panel_rows` consecutive rows. Within
// each panel, columns are ranked by occupancy; columns with at least
// `dense_col_threshold` nonzeros become *dense columns* whose X-rows the
// GPU kernel stages in shared memory (one global load per panel instead
// of one per nonzero). All remaining nonzeros form the *sparse part*,
// processed row-wise. The paper's physical column reordering within a
// panel (Fig 3b) is realised logically: dense nonzeros carry a compact
// slot index into the panel's dense-column list, which is exactly the
// shared-memory addressing the reordering exists to enable.
//
// Every nonzero also keeps its index into the original CSR value array so
// that SDDMM can scatter per-nonzero outputs back in the caller's layout.
#pragma once

#include <vector>

#include "sparse/csr.hpp"

namespace rrspmm::aspt {

using sparse::CsrMatrix;

struct AsptConfig {
  /// Rows per panel. The GPU kernel assigns one thread block per panel
  /// for the dense phase.
  index_t panel_rows = 64;
  /// Minimum nonzeros a column needs inside a panel to be tiled densely.
  /// The paper's worked example (Fig 3) uses 2.
  index_t dense_col_threshold = 4;
  /// Cap on dense columns per panel — models the 64 KB shared-memory
  /// budget of a P100 SM (the kernel stages dense-column X rows in
  /// K-wide strips; see gpusim).
  index_t max_dense_cols = 1024;
};

/// One row panel's dense tile.
struct Panel {
  index_t row_begin = 0;  ///< first row (inclusive)
  index_t row_end = 0;    ///< last row (exclusive)

  /// Original column ids of this panel's dense columns, ranked by
  /// descending occupancy (the paper's per-panel column sort).
  std::vector<index_t> dense_cols;

  /// CSR-of-the-dense-tile, rows relative to row_begin:
  /// dense nonzero k of local row r lives at dense_slot/dense_val
  /// [dense_rowptr[r] .. dense_rowptr[r+1]).
  std::vector<offset_t> dense_rowptr;
  /// Slot into dense_cols (i.e. shared-memory buffer index), not the
  /// original column id.
  std::vector<index_t> dense_slot;
  std::vector<value_t> dense_val;
  /// Position of each dense nonzero in the source CSR's value array.
  std::vector<offset_t> dense_src_idx;

  index_t rows() const { return row_end - row_begin; }
  offset_t nnz() const { return static_cast<offset_t>(dense_slot.size()); }
};

struct AsptStats {
  offset_t nnz_total = 0;
  offset_t nnz_dense = 0;
  index_t num_panels = 0;
  offset_t total_dense_cols = 0;  ///< sum of dense column counts over panels
  /// Fraction of nonzeros captured by dense tiles — the paper's
  /// DenseRatio, the round-1 skip criterion (§4).
  double dense_ratio() const {
    return nnz_total > 0 ? static_cast<double>(nnz_dense) / static_cast<double>(nnz_total) : 0.0;
  }
};

/// The tiled matrix: dense tiles per panel + sparse remainder.
class AsptMatrix {
 public:
  AsptMatrix() = default;

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  const std::vector<Panel>& panels() const { return panels_; }

  /// Sparse remainder with the same dimensions as the source matrix
  /// (rows fully captured by dense tiles are empty).
  const CsrMatrix& sparse_part() const { return sparse_part_; }

  /// Position of each sparse-part nonzero in the source CSR value array
  /// (aligned with sparse_part().values()).
  const std::vector<offset_t>& sparse_src_idx() const { return sparse_src_idx_; }

  const AsptStats& stats() const { return stats_; }

  /// Reassembles a tiled matrix from its parts (plan deserialisation).
  /// Validates the invariants build_aspt guarantees — panels partition
  /// [0, rows), slots index each panel's dense-column list, per-panel
  /// rowptrs are consistent, and the source-index maps cover
  /// [0, nnz_total) exactly once with every row's indices inside that
  /// row's range of the source CSR — and recomputes the statistics.
  /// Throws invalid_matrix on any violation.
  static AsptMatrix from_parts(index_t rows, index_t cols, std::vector<Panel> panels,
                               CsrMatrix sparse_part, std::vector<offset_t> sparse_src_idx);

  friend AsptMatrix build_aspt(const CsrMatrix& m, const AsptConfig& cfg);

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<Panel> panels_;
  CsrMatrix sparse_part_;
  std::vector<offset_t> sparse_src_idx_;
  AsptStats stats_;
};

/// Tiles `m`. Deterministic: occupancy ties in the column ranking break
/// on the lower column id.
AsptMatrix build_aspt(const CsrMatrix& m, const AsptConfig& cfg);

/// The dense-column cap the shared-memory budget actually implies: the
/// kernel stages dense-column X rows in strips of at least
/// `min_strip_cols` of the K dimension, so a panel can hold at most
/// shared_bytes / (min_strip_cols * 4) dense columns. With the P100's
/// 64 KB and a 16-column strip this is 1024 — the AsptConfig default.
index_t max_dense_cols_for(std::size_t shared_bytes_per_block, index_t min_strip_cols = 16);

/// Convenience: DenseRatio of `m` under `cfg` without keeping the tiling.
double dense_ratio(const CsrMatrix& m, const AsptConfig& cfg);

}  // namespace rrspmm::aspt
