#include "kernels/spmm.hpp"

#include <algorithm>

#include "kernels/detail/staging.hpp"
#include "sparse/validate.hpp"

namespace rrspmm::kernels {

namespace {

void check_spmm_shapes(index_t s_rows, index_t s_cols, DenseView x, DenseMutView y) {
  if (!x.valid() || !y.valid()) throw sparse::invalid_matrix("SpMM: invalid dense view");
  if (x.rows != s_cols) throw sparse::invalid_matrix("SpMM: X rows must equal S cols");
  if (y.rows != s_rows || y.cols != x.cols) {
    throw sparse::invalid_matrix("SpMM: Y must be S.rows x X.cols");
  }
}

void check_row_range(index_t rows, index_t row_begin, index_t row_end) {
  if (row_begin < 0 || row_end > rows || row_begin > row_end) {
    throw sparse::invalid_matrix("SpMM: row range out of bounds");
  }
}

// The one ASpT SpMM body. Zeroes the Y rows of tiled rows [row_begin,
// row_end) (through `y_rows`), runs the dense tiles of the panels that
// intersect the range, clipped to it, then the sparse remainder over
// positions [row_begin, row_end) of `order` (null = natural order).
void aspt_rows(const AsptMatrix& a, DenseView x, DenseMutView y, index_t row_begin,
               index_t row_end, const index_t* order, const simd::KernelConfig& cfg,
               const std::vector<index_t>* y_rows) {
  check_spmm_shapes(a.rows(), a.cols(), x, y);
  check_row_range(a.rows(), row_begin, row_end);
  const index_t* rows = detail::per_row(y_rows, a);
  const simd::KernelSelection t = detail::select_counted(cfg, x.cols);
  const index_t k = x.cols;
  for (index_t i = row_begin; i < row_end; ++i) {
    value_t* yr = y.row(rows ? rows[i] : i);
    std::fill(yr, yr + k, value_t{0});
  }

  // Dense tiles. The staged buffer plays the role of the GPU shared
  // memory: a panel's dense-column X rows are gathered once, and all its
  // dense nonzeros read the compact copy.
  detail::for_each_staged_panel(a, x, row_begin, row_end,
                                [&](const aspt::Panel& p, const value_t* staged,
                                    index_t staged_ld, index_t lo, index_t hi) {
    if (t.spmm_panel_dense != nullptr) {
      t.spmm_panel_dense(p.dense_rowptr.data(), p.dense_slot.data(), p.dense_val.data(),
                         p.row_begin, staged, staged_ld, y.data, y.ld, k, rows, lo, hi,
                         static_cast<index_t>(p.dense_cols.size()));
    } else {
      t.spmm_panel(p.dense_rowptr.data(), p.dense_slot.data(), p.dense_val.data(), p.row_begin,
                   staged, staged_ld, y.data, y.ld, k, rows, lo, hi);
    }
  });

  const CsrMatrix& sp = a.sparse_part();
  t.spmm_rows(sp.rowptr().data(), sp.colidx().data(), sp.values().data(), x.data, x.ld, y.data,
              y.ld, k, order, rows, /*zero_y=*/false, row_begin, row_end);
}

}  // namespace

void spmm_rowwise(const CsrMatrix& s, DenseView x, DenseMutView y) {
  spmm_rowwise(s, x, y, simd::active_config());
}

void spmm_rowwise(const CsrMatrix& s, DenseView x, DenseMutView y,
                  const simd::KernelConfig& cfg) {
  sparse::validate_csr(s, "spmm_rowwise");
  spmm_rowwise(s, x, y, 0, s.rows(), cfg);
}

void spmm_rowwise(const CsrMatrix& s, DenseView x, DenseMutView y, index_t row_begin,
                  index_t row_end, const simd::KernelConfig& cfg) {
  check_spmm_shapes(s.rows(), s.cols(), x, y);
  check_row_range(s.rows(), row_begin, row_end);
  const simd::KernelSelection t = detail::select_counted(cfg, x.cols);
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
  aspt_rows(a, x, y, 0, a.rows(), sparse_order ? sparse_order->data() : nullptr, cfg, y_rows);
}

void spmm_aspt_row_range(const AsptMatrix& a, DenseView x, DenseMutView y, index_t row_begin,
                         index_t row_end, const simd::KernelConfig& cfg,
                         const std::vector<index_t>* y_rows) {
  aspt_rows(a, x, y, row_begin, row_end, /*order=*/nullptr, cfg, y_rows);
}

}  // namespace rrspmm::kernels
