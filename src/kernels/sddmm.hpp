// Host SDDMM kernels: O[i][c] = S[i][c] * dot(Y row i, X row c)
// on the nonzero pattern of S (paper Alg 2, accumulate then scale).
//
// Output is a value array aligned with the *source* CSR's nonzero order,
// so callers can pair it directly with their matrix regardless of the
// execution strategy (the ASpT variant scatters through src-index maps).
//
// Like the SpMM kernels, these run single-threaded on the calling thread
// and dispatch through the SIMD layer (kernels/simd); overloads without a
// simd::KernelConfig use the process-wide active configuration, and
// every backend is bitwise-identical to the scalar reference (the
// 16-lane fused dot of kernels/detail/scalar_ref.hpp). The multi-core
// path is runtime::parallel_sddmm (or the Server), which fans
// sddmm_aspt_row_range out over a runtime::WorkerPool, one ASpT row
// panel per task.
//
// Dense operands are borrowed views (sparse/dense_view.hpp); DenseMatrix
// converts implicitly. The row-range entry point additionally takes the
// output as a raw pre-sized pointer — the zero-copy serving path writes
// straight into a caller-provided span.
//
// Reordered plans: the raw-output ASpT entry points take an optional row
// map (`y_rows`, a plan's row_perm). Tiled row i then reads Y row
// y_rows[i], and its outputs move by a per-row slot shift
// (sddmm_out_shift) from the tiled matrix's CSR order to the caller's CSR
// order. The plan writes the caller's layout directly: Y is never
// permuted and no output temporary is unpermuted. Each dot product is
// unchanged, so the bits are too.
#pragma once

#include <cstddef>
#include <vector>

#include "aspt/aspt.hpp"
#include "kernels/simd/dispatch.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense_view.hpp"

namespace rrspmm::kernels {

using aspt::AsptMatrix;
using sparse::CsrMatrix;
using sparse::DenseMatrix;
using sparse::DenseView;

/// Row-wise SDDMM. `out` is resized to s.nnz(); out[j] corresponds to the
/// j-th nonzero of `s`. y must be s.rows() x K, x must be s.cols() x K.
void sddmm_rowwise(const CsrMatrix& s, DenseView x, DenseView y, std::vector<value_t>& out);
void sddmm_rowwise(const CsrMatrix& s, DenseView x, DenseView y, std::vector<value_t>& out,
                   const simd::KernelConfig& cfg);

/// ASpT-structured SDDMM; `out` is aligned with the CSR that `a` was
/// built from (via the tiling's source-index maps). The raw-pointer form
/// writes a caller span that must hold exactly the tiling's nnz_total
/// values; the std::vector forms resize and forward to it. With
/// `y_rows` (a permutation of [0, rows)), `a` tiles the row-permuted
/// matrix whose row i is the caller's row (*y_rows)[i]: Y is read in the
/// caller's row order and `out` is aligned with the caller's CSR.
void sddmm_aspt(const AsptMatrix& a, DenseView x, DenseView y, std::vector<value_t>& out,
                const std::vector<index_t>* sparse_order = nullptr);
void sddmm_aspt(const AsptMatrix& a, DenseView x, DenseView y, std::vector<value_t>& out,
                const std::vector<index_t>* sparse_order, const simd::KernelConfig& cfg);
void sddmm_aspt(const AsptMatrix& a, DenseView x, DenseView y, value_t* out,
                std::size_t out_size, const std::vector<index_t>* sparse_order,
                const simd::KernelConfig& cfg, const std::vector<index_t>* y_rows = nullptr);

/// Per tiled row i, the distance from its first output slot in the tiled
/// matrix's CSR order to its first slot in the caller's CSR order, where
/// tiled row i is the caller's row y_rows[i]. Derived from the tiling
/// alone in O(rows). Because from_parts keeps every row's source indices
/// inside that row's own CSR range, each shifted slot lies in [0, nnz).
std::vector<offset_t> sddmm_out_shift(const AsptMatrix& a, const std::vector<index_t>& y_rows);

/// Row-range ASpT SDDMM: dense tiles clipped to [row_begin, row_end) plus
/// the sparse remainder of those rows, scattering through the source-
/// index maps; sddmm_aspt is this same body over [0, rows). `out` must
/// already be sized to the tiling's nnz_total. Race-free across disjoint
/// ranges; ranges partitioning [0, rows) reproduce sddmm_aspt exactly. A
/// reordered caller passes its row map and sddmm_out_shift(a, *y_rows),
/// computed once per call.
void sddmm_aspt_row_range(const AsptMatrix& a, DenseView x, DenseView y, value_t* out,
                          std::size_t out_size, index_t row_begin, index_t row_end,
                          const simd::KernelConfig& cfg,
                          const std::vector<index_t>* y_rows = nullptr,
                          const std::vector<offset_t>* out_shift = nullptr);

}  // namespace rrspmm::kernels
