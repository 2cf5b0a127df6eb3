// ASpT panel staging (and per-row argument checks) shared by the SpMM
// and SDDMM wrappers.
//
// The staged buffer is the host analogue of the GPU kernels' shared
// memory: the panel's dense-column X rows are gathered once into a
// compact, 64-byte-aligned scratch area whose leading dimension is
// padded (sparse::aligned_ld) so the SIMD backends can use aligned
// vector loads on every staged row. A buffer is sized once per kernel
// call to the largest dense-column count among the panels the call
// covers and reused across them.
//
// Internal to the baseline-compiled wrapper TUs — never include this
// from an ISA-flagged backend TU (it instantiates library inline code).
#pragma once

#include <algorithm>
#include <memory>
#include <span>
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

/// The panels intersecting rows [row_begin, row_end). Panels tile the
/// rows in order, so they are one contiguous run found by binary search.
inline std::span<const aspt::Panel> panels_in(const aspt::AsptMatrix& a, index_t row_begin,
                                              index_t row_end) {
  const std::vector<aspt::Panel>& ps = a.panels();
  const auto first = std::partition_point(
      ps.begin(), ps.end(), [&](const aspt::Panel& p) { return p.row_end <= row_begin; });
  const auto last = std::partition_point(
      first, ps.end(), [&](const aspt::Panel& p) { return p.row_begin < row_end; });
  return {first, last};
}

/// Largest dense-column count over the panels intersecting rows
/// [row_begin, row_end) (0 when none of them has dense tiles).
inline std::size_t max_panel_dense_cols(const aspt::AsptMatrix& a, index_t row_begin,
                                        index_t row_end) {
  std::size_t m = 0;
  for (const aspt::Panel& p : panels_in(a, row_begin, row_end)) {
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

/// The dense-tile phase's loop over rows [row_begin, row_end): for each
/// panel with dense tiles that intersects the range, stages it into one
/// buffer sized once to the largest such panel, then calls
/// f(panel, staged, staged_ld, lo, hi) with the panel clipped to the range.
/// The buffer is left uninitialised: stage_panel writes every lane a
/// kernel reads.
template <class F>
void for_each_staged_panel(const aspt::AsptMatrix& a, sparse::DenseView x, index_t row_begin,
                           index_t row_end, F&& f) {
  const std::size_t max_dense = max_panel_dense_cols(a, row_begin, row_end);
  if (max_dense == 0) return;
  const index_t staged_ld = sparse::aligned_ld(x.cols);
  const auto free_staged = [](value_t* p) { sparse::AlignedAllocator<value_t>{}.deallocate(p, 0); };
  const std::unique_ptr<value_t, decltype(free_staged)> staged(
      sparse::AlignedAllocator<value_t>{}.allocate(max_dense * static_cast<std::size_t>(staged_ld)),
      free_staged);
  for (const aspt::Panel& p : panels_in(a, row_begin, row_end)) {
    if (p.dense_cols.empty()) continue;
    stage_panel(p, x, x.cols, staged.get(), staged_ld);
    f(p, staged.get(), staged_ld, std::max(row_begin, p.row_begin), std::min(row_end, p.row_end));
  }
}

}  // namespace rrspmm::kernels::detail
