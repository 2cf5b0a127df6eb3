#include "kernels/spmm.hpp"

#include <algorithm>

#include "kernels/detail/staging.hpp"
#include "sparse/aligned.hpp"
#include "sparse/validate.hpp"

namespace rrspmm::kernels {

namespace {

// Rows handed to one serial table call by the parallel wrappers; matches
// the pre-dispatch kernels' `schedule(dynamic, 64)` row distribution.
constexpr index_t kRowBlock = 64;

void check_spmm_shapes(index_t s_rows, index_t s_cols, DenseView x, DenseMutView y) {
  if (!x.valid() || !y.valid()) throw sparse::invalid_matrix("SpMM: invalid dense view");
  if (x.rows != s_cols) throw sparse::invalid_matrix("SpMM: X rows must equal S cols");
  if (y.rows != s_rows || y.cols != x.cols) {
    throw sparse::invalid_matrix("SpMM: Y must be S.rows x X.cols");
  }
}

void zero_rows(DenseMutView y, index_t row_begin, index_t row_end, const index_t* y_rows) {
  for (index_t i = row_begin; i < row_end; ++i) {
    value_t* yr = y.row(y_rows ? y_rows[i] : i);
    std::fill(yr, yr + y.cols, value_t{0});
  }
}

}  // namespace

void spmm_rowwise(const CsrMatrix& s, DenseView x, DenseMutView y) {
  spmm_rowwise(s, x, y, simd::active_config());
}

void spmm_rowwise(const CsrMatrix& s, DenseView x, DenseMutView y,
                  const simd::KernelConfig& cfg) {
  sparse::validate_csr(s, "spmm_rowwise");
  check_spmm_shapes(s.rows(), s.cols(), x, y);
  const simd::KernelSelection t = simd::select_kernels(cfg, x.cols);
  simd::count_invocation(t.isa);
  if (t.specialized) simd::count_specialized(t.isa);
  const index_t k = x.cols;
  const index_t rows = s.rows();
  const index_t blocks = (rows + kRowBlock - 1) / kRowBlock;

#ifdef RRSPMM_HAVE_OPENMP
#pragma omp parallel for schedule(dynamic, 1)
#endif
  for (index_t blk = 0; blk < blocks; ++blk) {
    const index_t lo = blk * kRowBlock;
    const index_t hi = std::min(rows, lo + kRowBlock);
    t.spmm_rows(s.rowptr().data(), s.colidx().data(), s.values().data(), x.data, x.ld, y.data,
                y.ld, k, /*order=*/nullptr, /*y_rows=*/nullptr, /*zero_y=*/true, lo, hi);
  }
}

void spmm_rowwise(const CsrMatrix& s, DenseView x, DenseMutView y, index_t row_begin,
                  index_t row_end) {
  spmm_rowwise(s, x, y, row_begin, row_end, simd::active_config());
}

void spmm_rowwise(const CsrMatrix& s, DenseView x, DenseMutView y, index_t row_begin,
                  index_t row_end, const simd::KernelConfig& cfg) {
  check_spmm_shapes(s.rows(), s.cols(), x, y);
  if (row_begin < 0 || row_end > s.rows() || row_begin > row_end) {
    throw sparse::invalid_matrix("SpMM: row range out of bounds");
  }
  const simd::KernelSelection t = simd::select_kernels(cfg, x.cols);
  simd::count_invocation(t.isa);
  if (t.specialized) simd::count_specialized(t.isa);
  t.spmm_rows(s.rowptr().data(), s.colidx().data(), s.values().data(), x.data, x.ld, y.data,
              y.ld, x.cols, /*order=*/nullptr, /*y_rows=*/nullptr, /*zero_y=*/true, row_begin,
              row_end);
}

void spmm_aspt(const AsptMatrix& a, DenseView x, DenseMutView y,
               const std::vector<index_t>* sparse_order) {
  spmm_aspt(a, x, y, sparse_order, simd::active_config());
}

void spmm_aspt(const AsptMatrix& a, DenseView x, DenseMutView y,
               const std::vector<index_t>* sparse_order, const simd::KernelConfig& cfg,
               const std::vector<index_t>* y_rows) {
  check_spmm_shapes(a.rows(), a.cols(), x, y);
  const index_t* rows = detail::per_row(y_rows, a);
  const simd::KernelSelection t = simd::select_kernels(cfg, x.cols);
  simd::count_invocation(t.isa);
  if (t.specialized) simd::count_specialized(t.isa);
  const index_t k = x.cols;
  zero_rows(y, 0, y.rows, nullptr);

  // Phase 1: dense tiles. One aligned staging buffer per thread, sized
  // once to the largest panel (satellite: no per-panel resize), plays
  // the role of the GPU shared memory: dense-column X rows are gathered
  // once per panel, and all dense nonzeros read the compact copy.
  const std::size_t max_dense = detail::max_panel_dense_cols(a);
  if (max_dense > 0) {
    const index_t staged_ld = sparse::aligned_ld(k);
#ifdef RRSPMM_HAVE_OPENMP
#pragma omp parallel
#endif
    {
      sparse::AlignedVector<value_t> staged(max_dense * static_cast<std::size_t>(staged_ld));
#ifdef RRSPMM_HAVE_OPENMP
#pragma omp for schedule(dynamic, 1)
#endif
      for (std::size_t pi = 0; pi < a.panels().size(); ++pi) {
        const aspt::Panel& p = a.panels()[pi];
        if (p.dense_cols.empty()) continue;
        detail::stage_panel(p, x, k, staged.data(), staged_ld);
        if (t.spmm_panel_dense != nullptr) {
          t.spmm_panel_dense(p.dense_rowptr.data(), p.dense_slot.data(), p.dense_val.data(),
                             p.row_begin, staged.data(), staged_ld, y.data, y.ld, k, rows,
                             p.row_begin, p.row_end,
                             static_cast<index_t>(p.dense_cols.size()));
        } else {
          t.spmm_panel(p.dense_rowptr.data(), p.dense_slot.data(), p.dense_val.data(),
                       p.row_begin, staged.data(), staged_ld, y.data, y.ld, k, rows,
                       p.row_begin, p.row_end);
        }
      }
    }
  }

  // Phase 2: sparse remainder, row-wise, in the requested processing
  // order. Each position of the order owns a distinct output row, so the
  // parallel loop is race-free.
  const CsrMatrix& sp = a.sparse_part();
  const index_t* order = sparse_order ? sparse_order->data() : nullptr;
  const index_t blocks = (sp.rows() + kRowBlock - 1) / kRowBlock;
#ifdef RRSPMM_HAVE_OPENMP
#pragma omp parallel for schedule(dynamic, 1)
#endif
  for (index_t blk = 0; blk < blocks; ++blk) {
    const index_t lo = blk * kRowBlock;
    const index_t hi = std::min(sp.rows(), lo + kRowBlock);
    t.spmm_rows(sp.rowptr().data(), sp.colidx().data(), sp.values().data(), x.data, x.ld,
                y.data, y.ld, k, order, rows, /*zero_y=*/false, lo, hi);
  }
}

void spmm_aspt_row_range(const AsptMatrix& a, DenseView x, DenseMutView y, index_t row_begin,
                         index_t row_end) {
  spmm_aspt_row_range(a, x, y, row_begin, row_end, simd::active_config());
}

void spmm_aspt_row_range(const AsptMatrix& a, DenseView x, DenseMutView y, index_t row_begin,
                         index_t row_end, const simd::KernelConfig& cfg,
                         const std::vector<index_t>* y_rows) {
  check_spmm_shapes(a.rows(), a.cols(), x, y);
  if (row_begin < 0 || row_end > a.rows() || row_begin > row_end) {
    throw sparse::invalid_matrix("SpMM: row range out of bounds");
  }
  const index_t* rows = detail::per_row(y_rows, a);
  const simd::KernelSelection t = simd::select_kernels(cfg, x.cols);
  simd::count_invocation(t.isa);
  if (t.specialized) simd::count_specialized(t.isa);
  const index_t k = x.cols;
  zero_rows(y, row_begin, row_end, rows);

  // Dense tiles of the panels intersecting the range, clipped to it. The
  // staging buffer is sized once to the largest intersecting panel and
  // reused, matching the parallel kernel's per-thread buffer behaviour.
  const std::size_t max_dense = detail::max_panel_dense_cols_in_range(a, row_begin, row_end);
  if (max_dense > 0) {
    const index_t staged_ld = sparse::aligned_ld(k);
    sparse::AlignedVector<value_t> staged(max_dense * static_cast<std::size_t>(staged_ld));
    for (const aspt::Panel& p : a.panels()) {
      if (p.row_end <= row_begin || p.row_begin >= row_end) continue;
      if (p.dense_cols.empty()) continue;
      detail::stage_panel(p, x, k, staged.data(), staged_ld);
      if (t.spmm_panel_dense != nullptr) {
        t.spmm_panel_dense(p.dense_rowptr.data(), p.dense_slot.data(), p.dense_val.data(),
                           p.row_begin, staged.data(), staged_ld, y.data, y.ld, k, rows,
                           std::max(row_begin, p.row_begin), std::min(row_end, p.row_end),
                           static_cast<index_t>(p.dense_cols.size()));
      } else {
        t.spmm_panel(p.dense_rowptr.data(), p.dense_slot.data(), p.dense_val.data(),
                     p.row_begin, staged.data(), staged_ld, y.data, y.ld, k, rows,
                     std::max(row_begin, p.row_begin), std::min(row_end, p.row_end));
      }
    }
  }

  // Sparse remainder of the same rows.
  const CsrMatrix& sp = a.sparse_part();
  t.spmm_rows(sp.rowptr().data(), sp.colidx().data(), sp.values().data(), x.data, x.ld, y.data,
              y.ld, k, /*order=*/nullptr, rows, /*zero_y=*/false, row_begin, row_end);
}

}  // namespace rrspmm::kernels
