#include "kernels/sddmm.hpp"

#include "kernels/detail/staging.hpp"
#include "sparse/validate.hpp"

namespace rrspmm::kernels {

namespace {

void check_sddmm_shapes(index_t s_rows, index_t s_cols, DenseView x, DenseView y) {
  if (!x.valid() || !y.valid()) throw sparse::invalid_matrix("SDDMM: invalid dense view");
  if (y.rows != s_rows) throw sparse::invalid_matrix("SDDMM: Y rows must equal S rows");
  if (x.rows != s_cols) throw sparse::invalid_matrix("SDDMM: X rows must equal S cols");
  if (x.cols != y.cols) throw sparse::invalid_matrix("SDDMM: X and Y must share K");
}

void check_out_size(const AsptMatrix& a, std::size_t out_size) {
  if (out_size != static_cast<std::size_t>(a.stats().nnz_total)) {
    throw sparse::invalid_matrix("SDDMM: out must hold exactly nnz values");
  }
}

// The one ASpT SDDMM body: the dense tiles of the panels that intersect
// [row_begin, row_end), clipped to it, then the sparse remainder over
// positions [row_begin, row_end) of `order` (null = natural order). Every
// output slot of those rows is written once, through the source-index
// maps and the optional row map and slot shift.
void aspt_rows(const AsptMatrix& a, DenseView x, DenseView y, value_t* out,
               std::size_t out_size, index_t row_begin, index_t row_end, const index_t* order,
               const simd::KernelConfig& cfg, const std::vector<index_t>* y_rows,
               const std::vector<offset_t>* out_shift) {
  check_sddmm_shapes(a.rows(), a.cols(), x, y);
  if (row_begin < 0 || row_end > a.rows() || row_begin > row_end) {
    throw sparse::invalid_matrix("SDDMM: row range out of bounds");
  }
  check_out_size(a, out_size);
  const index_t* rows = detail::per_row(y_rows, a);
  const offset_t* shift = detail::per_row(out_shift, a);
  const simd::KernelSelection t = detail::select_counted(cfg, x.cols);
  const index_t k = x.cols;

  detail::for_each_staged_panel(a, x, row_begin, row_end,
                                [&](const aspt::Panel& p, const value_t* staged,
                                    index_t staged_ld, index_t lo, index_t hi) {
    t.sddmm_panel(p.dense_rowptr.data(), p.dense_slot.data(), p.dense_val.data(),
                  p.dense_src_idx.data(), p.row_begin, staged, staged_ld, y.data, y.ld, k, out,
                  rows, shift, lo, hi);
  });

  const CsrMatrix& sp = a.sparse_part();
  t.sddmm_rows(sp.rowptr().data(), sp.colidx().data(), sp.values().data(), x.data, x.ld,
               y.data, y.ld, k, out, a.sparse_src_idx().data(), order, rows, shift, row_begin,
               row_end);
}

}  // namespace

void sddmm_rowwise(const CsrMatrix& s, DenseView x, DenseView y, std::vector<value_t>& out) {
  sddmm_rowwise(s, x, y, out, simd::active_config());
}

void sddmm_rowwise(const CsrMatrix& s, DenseView x, DenseView y, std::vector<value_t>& out,
                   const simd::KernelConfig& cfg) {
  sparse::validate_csr(s, "sddmm_rowwise");
  check_sddmm_shapes(s.rows(), s.cols(), x, y);
  const simd::KernelSelection t = detail::select_counted(cfg, x.cols);
  out.assign(static_cast<std::size_t>(s.nnz()), value_t{0});
  t.sddmm_rows(s.rowptr().data(), s.colidx().data(), s.values().data(), x.data, x.ld, y.data,
               y.ld, x.cols, out.data(), /*src=*/nullptr, /*order=*/nullptr, /*y_rows=*/nullptr,
               /*out_shift=*/nullptr, 0, s.rows());
}

void sddmm_aspt(const AsptMatrix& a, DenseView x, DenseView y, std::vector<value_t>& out,
                const std::vector<index_t>* sparse_order) {
  sddmm_aspt(a, x, y, out, sparse_order, simd::active_config());
}

void sddmm_aspt(const AsptMatrix& a, DenseView x, DenseView y, std::vector<value_t>& out,
                const std::vector<index_t>* sparse_order, const simd::KernelConfig& cfg) {
  out.resize(static_cast<std::size_t>(a.stats().nnz_total));
  sddmm_aspt(a, x, y, out.data(), out.size(), sparse_order, cfg);
}

std::vector<offset_t> sddmm_out_shift(const AsptMatrix& a, const std::vector<index_t>& y_rows) {
  const index_t* rows = detail::per_row(&y_rows, a);
  const std::size_t n = static_cast<std::size_t>(a.rows());
  // Nonzeros per tiled row: its dense-tile part plus its sparse part.
  const auto& sp_ptr = a.sparse_part().rowptr();
  std::vector<offset_t> shift(n);
  for (std::size_t i = 0; i < n; ++i) shift[i] = sp_ptr[i + 1] - sp_ptr[i];
  for (const aspt::Panel& p : a.panels()) {
    for (std::size_t r = 0; r + 1 < p.dense_rowptr.size(); ++r) {
      shift[static_cast<std::size_t>(p.row_begin) + r] += p.dense_rowptr[r + 1] - p.dense_rowptr[r];
    }
  }
  // Row starts in the caller's CSR order: the same counts, placed at
  // their caller row and prefix-summed.
  std::vector<offset_t> caller_base(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    caller_base[static_cast<std::size_t>(rows[i]) + 1] = shift[i];
  }
  for (std::size_t i = 1; i <= n; ++i) caller_base[i] += caller_base[i - 1];
  offset_t tiled_base = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const offset_t len = shift[i];
    shift[i] = caller_base[static_cast<std::size_t>(rows[i])] - tiled_base;
    tiled_base += len;
  }
  return shift;
}

void sddmm_aspt(const AsptMatrix& a, DenseView x, DenseView y, value_t* out,
                std::size_t out_size, const std::vector<index_t>* sparse_order,
                const simd::KernelConfig& cfg, const std::vector<index_t>* y_rows) {
  const std::vector<offset_t> shift =
      y_rows ? sddmm_out_shift(a, *y_rows) : std::vector<offset_t>{};
  check_out_size(a, out_size);
  aspt_rows(a, x, y, out, out_size, 0, a.rows(), sparse_order ? sparse_order->data() : nullptr,
            cfg, y_rows, y_rows ? &shift : nullptr);
}

void sddmm_aspt_row_range(const AsptMatrix& a, DenseView x, DenseView y, value_t* out,
                          std::size_t out_size, index_t row_begin, index_t row_end,
                          const simd::KernelConfig& cfg, const std::vector<index_t>* y_rows,
                          const std::vector<offset_t>* out_shift) {
  aspt_rows(a, x, y, out, out_size, row_begin, row_end, /*order=*/nullptr, cfg, y_rows,
            out_shift);
}

}  // namespace rrspmm::kernels
