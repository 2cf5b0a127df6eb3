// ASpT panel staging (and per-row argument checks) shared by the SpMM
// and SDDMM wrappers.
//
// The staged buffer is the host analogue of the GPU kernels' shared
// memory: the panel's dense-column X rows are gathered once into a
// compact, 64-byte-aligned scratch area whose leading dimension is
// padded (sparse::aligned_ld) so the SIMD backends can use aligned
// vector loads on every staged row. Buffers are sized once per kernel
// call to the maximum panel dense-column count and reused across panels.
//
// Internal to the baseline-compiled wrapper TUs — never include this
// from an ISA-flagged backend TU (it instantiates library inline code).
#pragma once

#include <algorithm>
#include <vector>

#include "aspt/aspt.hpp"
#include "sparse/aligned.hpp"
#include "sparse/dense_view.hpp"

namespace rrspmm::kernels::detail {

/// Data of an optional per-tiled-row array (a row map or an SDDMM output
/// shift), null when absent. Throws invalid_matrix unless it holds one
/// entry per row of `a`.
template <class T>
const T* per_row(const std::vector<T>* v, const aspt::AsptMatrix& a) {
  if (!v) return nullptr;
  if (v->size() != static_cast<std::size_t>(a.rows())) {
    throw sparse::invalid_matrix("ASpT kernel: per-row argument must cover every row");
  }
  return v->data();
}

/// Largest dense-column count over all panels (0 when no panel has
/// dense tiles).
inline std::size_t max_panel_dense_cols(const aspt::AsptMatrix& a) {
  std::size_t m = 0;
  for (const aspt::Panel& p : a.panels()) m = std::max(m, p.dense_cols.size());
  return m;
}

/// Same, restricted to panels intersecting rows [row_begin, row_end).
inline std::size_t max_panel_dense_cols_in_range(const aspt::AsptMatrix& a, index_t row_begin,
                                                 index_t row_end) {
  std::size_t m = 0;
  for (const aspt::Panel& p : a.panels()) {
    if (p.row_end <= row_begin || p.row_begin >= row_end) continue;
    m = std::max(m, p.dense_cols.size());
  }
  return m;
}

/// Copies the panel's dense-column X rows into the staged buffer with
/// leading dimension staged_ld (>= k). Padding lanes are never read by
/// the kernels, so only the first k elements of each row are written.
inline void stage_panel(const aspt::Panel& p, sparse::DenseView x, index_t k, value_t* staged,
                        index_t staged_ld) {
  for (std::size_t d = 0; d < p.dense_cols.size(); ++d) {
    const value_t* xr = x.row(p.dense_cols[d]);
    std::copy(xr, xr + k, staged + d * static_cast<std::size_t>(staged_ld));
  }
}

}  // namespace rrspmm::kernels::detail
