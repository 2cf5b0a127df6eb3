// Dispatch-table ABI between the public kernels (spmm.cpp / sddmm.cpp)
// and the per-ISA backend translation units.
//
// The signatures take raw pointers and strides only — no CsrMatrix /
// AsptMatrix / DenseMatrix. This is deliberate: the backend TUs are
// compiled with ISA-specific flags (-mavx2, -mavx512f, ...), and any
// inline library code instantiated inside them would be emitted as a
// comdat that the linker may pick over the baseline copy, leaking AVX
// instructions into code that runs unconditionally. Keeping the ABI at
// the pointer level means those TUs only ever compile their own loops.
#pragma once

#include "kernels/simd/isa.hpp"
#include "sparse/types.hpp"

namespace rrspmm::kernels::simd {

/// Compile-time K widths with dedicated AOT instantiations: slot i of
/// the KernelTable's *_kw arrays handles exactly K == kSpecKWidths[i].
inline constexpr index_t kSpecKWidths[] = {32, 64, 128};
inline constexpr std::size_t kSpecKWidthCount =
    sizeof(kSpecKWidths) / sizeof(kSpecKWidths[0]);

/// Largest K at which a short-row-heavy plan still takes a row-driver
/// substitution (the K-width instantiation, or the classed driver off
/// the K-width slots). Past it neither pays on tiny rows, so those plans
/// keep the generic row drivers.
inline constexpr index_t kShortRowKWidthMax = 64;

/// Slot of a K-width instantiation, or -1 when K has none.
constexpr int spec_k_slot(index_t k) {
  for (std::size_t i = 0; i < kSpecKWidthCount; ++i) {
    if (kSpecKWidths[i] == k) return static_cast<int>(i);
  }
  return -1;
}

/// One backend's kernel entry points. All functions are serial — callers
/// that want several cores split the rows (runtime::parallel_*) — and
/// all of them reproduce the scalar reference's fused arithmetic
/// (kernels/detail/scalar_ref.hpp), so every table is bitwise-equal to
/// the scalar one.
struct KernelTable {
  Isa isa = Isa::scalar;

  /// CSR SpMM over positions [pos_begin, pos_end): the processed row is
  /// `i = order ? order[pos] : pos`, and it writes output row
  /// `y_rows ? y_rows[i] : i` — every entry below takes the same nullable
  /// row map, which is how a reordered plan's kernels write straight into
  /// the caller's row order. Each position owns its output row. When
  /// `zero_y`, the row is zeroed first (row-wise kernels); otherwise it
  /// accumulates (ASpT sparse remainder).
  void (*spmm_rows)(const offset_t* rowptr, const index_t* colidx, const value_t* vals,
                    const value_t* x, index_t x_ld, value_t* y, index_t y_ld, index_t k,
                    const index_t* order, const index_t* y_rows, bool zero_y,
                    index_t pos_begin, index_t pos_end) = nullptr;

  /// ASpT dense-tile phase of one panel, clipped to absolute rows
  /// [row_lo, row_hi). `staged` holds the panel's dense-column X rows,
  /// 64-byte aligned with leading dimension `staged_ld` (a multiple of
  /// 16 floats), so backends may use aligned vector loads on it.
  void (*spmm_panel)(const offset_t* dense_rowptr, const index_t* dense_slot,
                     const value_t* dense_val, index_t panel_row_begin, const value_t* staged,
                     index_t staged_ld, value_t* y, index_t y_ld, index_t k,
                     const index_t* y_rows, index_t row_lo, index_t row_hi) = nullptr;

  /// Dense-tile micro-GEMM: the spmm_panel contract plus the panel's
  /// dense-column count. Adjacent rows whose tiles are *fully* dense
  /// (row nnz == dense_cols) enumerate the same column set in the same
  /// order, so their slot sequences coincide and the kernel may
  /// register-block the two output rows against shared staged X loads —
  /// a small dense GEMM. Partial or unpairable rows fall back to the
  /// spmm_panel body. Bitwise contract unchanged: every element still
  /// accumulates its nonzeros in storage order, one fused step each;
  /// pairing only shares loads.
  void (*spmm_panel_dense)(const offset_t* dense_rowptr, const index_t* dense_slot,
                           const value_t* dense_val, index_t panel_row_begin,
                           const value_t* staged, index_t staged_ld, value_t* y, index_t y_ld,
                           index_t k, const index_t* y_rows, index_t row_lo, index_t row_hi,
                           index_t dense_cols) = nullptr;

  /// CSR SDDMM over positions [pos_begin, pos_end): for nonzero j of row
  /// i, out[(src ? src[base+j] : base+j) + (out_shift ? out_shift[i] : 0)]
  /// = vals[base+j] * dot(Y_r, X_col), where r = y_rows ? y_rows[i] : i.
  /// The row map and the per-row slot shift move a reordered plan's reads
  /// and writes into the caller's row order and CSR order.
  void (*sddmm_rows)(const offset_t* rowptr, const index_t* colidx, const value_t* vals,
                     const value_t* x, index_t x_ld, const value_t* ymat, index_t y_ld,
                     index_t k, value_t* out, const offset_t* src, const index_t* order,
                     const index_t* y_rows, const offset_t* out_shift, index_t pos_begin,
                     index_t pos_end) = nullptr;

  /// ASpT dense-tile SDDMM of one panel, clipped to [row_lo, row_hi),
  /// scattering through dense_src_idx (plus the row's out_shift). Staged
  /// buffer as in spmm_panel.
  void (*sddmm_panel)(const offset_t* dense_rowptr, const index_t* dense_slot,
                      const value_t* dense_val, const offset_t* dense_src_idx,
                      index_t panel_row_begin, const value_t* staged, index_t staged_ld,
                      const value_t* ymat, index_t y_ld, index_t k, value_t* out,
                      const index_t* y_rows, const offset_t* out_shift, index_t row_lo,
                      index_t row_hi) = nullptr;

  using SpmmRowsFn = decltype(spmm_rows);
  using SpmmPanelFn = decltype(spmm_panel);
  using SpmmPanelDenseFn = decltype(spmm_panel_dense);
  using SddmmRowsFn = decltype(sddmm_rows);
  using SddmmPanelFn = decltype(sddmm_panel);

  /// AOT plan-specialized row drivers (kernels_spec.hpp); null when the
  /// backend is a stub. Same ABI and bitwise contract as the generic
  /// entries above: specialization changes the instruction schedule
  /// (compile-time K, fully-unrolled short-row bodies), never the
  /// per-element reduction order, so every specialized entry stays
  /// bit-identical to the scalar reference. The caller must only use
  /// slot i when k == kSpecKWidths[i] (select_kernels enforces this).
  SpmmRowsFn spmm_rows_kw[kSpecKWidthCount] = {};
  SddmmRowsFn sddmm_rows_kw[kSpecKWidthCount] = {};

  /// Runtime-K SpMM row driver with the short-row unrolled bodies, for K
  /// outside kSpecKWidths (up to kShortRowKWidthMax) on short-row-heavy
  /// plans.
  SpmmRowsFn spmm_rows_classed = nullptr;
};

}  // namespace rrspmm::kernels::simd
