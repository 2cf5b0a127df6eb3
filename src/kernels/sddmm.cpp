#include "kernels/sddmm.hpp"

#include <algorithm>

#include "kernels/detail/staging.hpp"
#include "sparse/aligned.hpp"
#include "sparse/validate.hpp"

namespace rrspmm::kernels {

namespace {

constexpr index_t kRowBlock = 64;  // see spmm.cpp

void check_sddmm_shapes(index_t s_rows, index_t s_cols, DenseView x, DenseView y) {
  if (!x.valid() || !y.valid()) throw sparse::invalid_matrix("SDDMM: invalid dense view");
  if (y.rows != s_rows) throw sparse::invalid_matrix("SDDMM: Y rows must equal S rows");
  if (x.rows != s_cols) throw sparse::invalid_matrix("SDDMM: X rows must equal S cols");
  if (x.cols != y.cols) throw sparse::invalid_matrix("SDDMM: X and Y must share K");
}

}  // namespace

void sddmm_rowwise(const CsrMatrix& s, DenseView x, DenseView y, std::vector<value_t>& out) {
  sddmm_rowwise(s, x, y, out, simd::active_config());
}

void sddmm_rowwise(const CsrMatrix& s, DenseView x, DenseView y, std::vector<value_t>& out,
                   const simd::KernelConfig& cfg) {
  sparse::validate_csr(s, "sddmm_rowwise");
  check_sddmm_shapes(s.rows(), s.cols(), x, y);
  const simd::KernelSelection t = simd::select_kernels(cfg, x.cols);
  simd::count_invocation(t.isa);
  if (t.specialized) simd::count_specialized(t.isa);
  const index_t k = x.cols;
  out.assign(static_cast<std::size_t>(s.nnz()), value_t{0});
  const index_t blocks = (s.rows() + kRowBlock - 1) / kRowBlock;

#ifdef RRSPMM_HAVE_OPENMP
#pragma omp parallel for schedule(dynamic, 1)
#endif
  for (index_t blk = 0; blk < blocks; ++blk) {
    const index_t lo = blk * kRowBlock;
    const index_t hi = std::min(s.rows(), lo + kRowBlock);
    t.sddmm_rows(s.rowptr().data(), s.colidx().data(), s.values().data(), x.data, x.ld, y.data,
                 y.ld, k, out.data(), /*src=*/nullptr, /*order=*/nullptr, /*y_rows=*/nullptr,
                 /*out_shift=*/nullptr, lo, hi);
  }
}

void sddmm_rowwise(const CsrMatrix& s, DenseView x, DenseView y, value_t* out,
                   std::size_t out_size, index_t row_begin, index_t row_end) {
  sddmm_rowwise(s, x, y, out, out_size, row_begin, row_end, simd::active_config());
}

void sddmm_rowwise(const CsrMatrix& s, DenseView x, DenseView y, value_t* out,
                   std::size_t out_size, index_t row_begin, index_t row_end,
                   const simd::KernelConfig& cfg) {
  check_sddmm_shapes(s.rows(), s.cols(), x, y);
  if (row_begin < 0 || row_end > s.rows() || row_begin > row_end) {
    throw sparse::invalid_matrix("SDDMM: row range out of bounds");
  }
  if (out_size != static_cast<std::size_t>(s.nnz())) {
    throw sparse::invalid_matrix("SDDMM: out must be pre-sized to nnz for row-range calls");
  }
  const simd::KernelSelection t = simd::select_kernels(cfg, x.cols);
  simd::count_invocation(t.isa);
  if (t.specialized) simd::count_specialized(t.isa);
  t.sddmm_rows(s.rowptr().data(), s.colidx().data(), s.values().data(), x.data, x.ld, y.data,
               y.ld, x.cols, out, /*src=*/nullptr, /*order=*/nullptr, /*y_rows=*/nullptr,
               /*out_shift=*/nullptr, row_begin, row_end);
}

void sddmm_rowwise(const CsrMatrix& s, DenseView x, DenseView y, std::vector<value_t>& out,
                   index_t row_begin, index_t row_end) {
  sddmm_rowwise(s, x, y, out.data(), out.size(), row_begin, row_end, simd::active_config());
}

void sddmm_rowwise(const CsrMatrix& s, DenseView x, DenseView y, std::vector<value_t>& out,
                   index_t row_begin, index_t row_end, const simd::KernelConfig& cfg) {
  sddmm_rowwise(s, x, y, out.data(), out.size(), row_begin, row_end, cfg);
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
  check_sddmm_shapes(a.rows(), a.cols(), x, y);
  if (out_size != static_cast<std::size_t>(a.stats().nnz_total)) {
    throw sparse::invalid_matrix("SDDMM: out must hold exactly nnz values");
  }
  const std::vector<offset_t> shifts =
      y_rows ? sddmm_out_shift(a, *y_rows) : std::vector<offset_t>{};
  const index_t* rows = detail::per_row(y_rows, a);
  const offset_t* shift = y_rows ? shifts.data() : nullptr;
  const simd::KernelSelection t = simd::select_kernels(cfg, x.cols);
  simd::count_invocation(t.isa);
  if (t.specialized) simd::count_specialized(t.isa);
  const index_t k = x.cols;
  std::fill(out, out + out_size, value_t{0});

  // Phase 1: dense tiles with an aligned staged panel buffer per thread,
  // sized once to the largest panel (see spmm_aspt).
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
        t.sddmm_panel(p.dense_rowptr.data(), p.dense_slot.data(), p.dense_val.data(),
                      p.dense_src_idx.data(), p.row_begin, staged.data(), staged_ld, y.data,
                      y.ld, k, out, rows, shift, p.row_begin, p.row_end);
      }
    }
  }

  // Phase 2: sparse remainder. Distinct nonzeros scatter to distinct
  // source indices, so the loop is race-free.
  const CsrMatrix& sp = a.sparse_part();
  const index_t* order = sparse_order ? sparse_order->data() : nullptr;
  const index_t blocks = (sp.rows() + kRowBlock - 1) / kRowBlock;
#ifdef RRSPMM_HAVE_OPENMP
#pragma omp parallel for schedule(dynamic, 1)
#endif
  for (index_t blk = 0; blk < blocks; ++blk) {
    const index_t lo = blk * kRowBlock;
    const index_t hi = std::min(sp.rows(), lo + kRowBlock);
    t.sddmm_rows(sp.rowptr().data(), sp.colidx().data(), sp.values().data(), x.data, x.ld,
                 y.data, y.ld, k, out, a.sparse_src_idx().data(), order, rows, shift, lo, hi);
  }
}

void sddmm_aspt_row_range(const AsptMatrix& a, DenseView x, DenseView y, value_t* out,
                          std::size_t out_size, index_t row_begin, index_t row_end) {
  sddmm_aspt_row_range(a, x, y, out, out_size, row_begin, row_end, simd::active_config());
}

void sddmm_aspt_row_range(const AsptMatrix& a, DenseView x, DenseView y, value_t* out,
                          std::size_t out_size, index_t row_begin, index_t row_end,
                          const simd::KernelConfig& cfg, const std::vector<index_t>* y_rows,
                          const std::vector<offset_t>* out_shift) {
  check_sddmm_shapes(a.rows(), a.cols(), x, y);
  if (row_begin < 0 || row_end > a.rows() || row_begin > row_end) {
    throw sparse::invalid_matrix("SDDMM: row range out of bounds");
  }
  if (out_size != static_cast<std::size_t>(a.stats().nnz_total)) {
    throw sparse::invalid_matrix("SDDMM: out must be pre-sized to nnz for row-range calls");
  }
  const index_t* rows = detail::per_row(y_rows, a);
  const offset_t* shift = detail::per_row(out_shift, a);
  const simd::KernelSelection t = simd::select_kernels(cfg, x.cols);
  simd::count_invocation(t.isa);
  if (t.specialized) simd::count_specialized(t.isa);
  const index_t k = x.cols;

  // Dense tiles of the panels intersecting the range, clipped to it; one
  // staging buffer sized to the largest intersecting panel.
  const std::size_t max_dense = detail::max_panel_dense_cols_in_range(a, row_begin, row_end);
  if (max_dense > 0) {
    const index_t staged_ld = sparse::aligned_ld(k);
    sparse::AlignedVector<value_t> staged(max_dense * static_cast<std::size_t>(staged_ld));
    for (const aspt::Panel& p : a.panels()) {
      if (p.row_end <= row_begin || p.row_begin >= row_end) continue;
      if (p.dense_cols.empty()) continue;
      detail::stage_panel(p, x, k, staged.data(), staged_ld);
      t.sddmm_panel(p.dense_rowptr.data(), p.dense_slot.data(), p.dense_val.data(),
                    p.dense_src_idx.data(), p.row_begin, staged.data(), staged_ld, y.data,
                    y.ld, k, out, rows, shift, std::max(row_begin, p.row_begin),
                    std::min(row_end, p.row_end));
    }
  }

  // Sparse remainder of the same rows.
  const CsrMatrix& sp = a.sparse_part();
  t.sddmm_rows(sp.rowptr().data(), sp.colidx().data(), sp.values().data(), x.data, x.ld,
               y.data, y.ld, k, out, a.sparse_src_idx().data(), /*order=*/nullptr, rows, shift,
               row_begin, row_end);
}

void sddmm_aspt_row_range(const AsptMatrix& a, DenseView x, DenseView y,
                          std::vector<value_t>& out, index_t row_begin, index_t row_end) {
  sddmm_aspt_row_range(a, x, y, out.data(), out.size(), row_begin, row_end,
                       simd::active_config());
}

void sddmm_aspt_row_range(const AsptMatrix& a, DenseView x, DenseView y,
                          std::vector<value_t>& out, index_t row_begin, index_t row_end,
                          const simd::KernelConfig& cfg) {
  sddmm_aspt_row_range(a, x, y, out.data(), out.size(), row_begin, row_end, cfg);
}

}  // namespace rrspmm::kernels
