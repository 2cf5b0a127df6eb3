// Register-blocked SpMM / SDDMM kernel bodies, generic over a vector
// backend V (vec.hpp).
//
// Bitwise-equality contract: every body reproduces the scalar reference
// (kernels/detail/scalar_ref.hpp) bit for bit on every backend.
//  * SpMM: each output element is the ordered fused chain
//    yr[kk] = fma(v_j, x_j[kk], yr[kk]) over the row's nonzeros.
//    Vectorizing across kk keeps every element's chain intact (lanes
//    never mix kk positions), and V::madd rounds once per lane like the
//    scalar fmadd, so the result is bit-identical for any V. Tails left
//    over by the vector blocks run the same scalar fmadd.
//  * SDDMM: each nonzero's dot is the reference's 16-lane shape — lane
//    partial sums over contiguous loads of the Y and X rows, the fixed
//    pairwise tree (V::sum16x4) and the ordered fused tail.
//
// This header is included from TUs compiled with ISA-specific flags, so
// it deliberately contains only raw loops over raw pointers (plus the
// internal-linkage scalar helpers) — nothing here may instantiate
// library inline code that could be comdat-merged across TUs.
#pragma once

#include <cstddef>

#include "kernels/detail/scalar_ref.hpp"
#include "kernels/simd/table.hpp"
#include "kernels/simd/vec.hpp"

namespace rrspmm::kernels::simd {

namespace generic {

template <class V, bool Aligned>
inline V load_x(const value_t* p) {
  if constexpr (Aligned) {
    return V::load(p);
  } else {
    return V::loadu(p);
  }
}

/// yr[0..k) += sum_j val(j) * xrow(j)[0..k).
///
/// K is tiled into 4-vector register blocks: the four accumulators are
/// loaded from yr once, held in registers across the whole nonzero loop
/// (only the X row load and a broadcast remain inside), and stored once.
/// AlignedX marks xrow(j) pointers as vector-aligned with a padded
/// leading dimension (the ASpT staged panel), enabling aligned loads.
template <class V, bool AlignedX, class GetX, class GetV>
inline void accumulate_row(value_t* yr, index_t k, index_t nnz, GetX&& xrow, GetV&& val) {
  if constexpr (V::width == 1) {
    for (index_t j = 0; j < nnz; ++j) detail::axpy(yr, xrow(j), val(j), k);
    return;
  } else {
    constexpr index_t W = V::width;
    index_t kk = 0;
    for (; kk + 4 * W <= k; kk += 4 * W) {
      V a0 = V::loadu(yr + kk);
      V a1 = V::loadu(yr + kk + W);
      V a2 = V::loadu(yr + kk + 2 * W);
      V a3 = V::loadu(yr + kk + 3 * W);
      for (index_t j = 0; j < nnz; ++j) {
        const V v = V::broadcast(val(j));
        const value_t* xr = xrow(j) + kk;
        a0 = V::madd(v, load_x<V, AlignedX>(xr), a0);
        a1 = V::madd(v, load_x<V, AlignedX>(xr + W), a1);
        a2 = V::madd(v, load_x<V, AlignedX>(xr + 2 * W), a2);
        a3 = V::madd(v, load_x<V, AlignedX>(xr + 3 * W), a3);
      }
      a0.storeu(yr + kk);
      a1.storeu(yr + kk + W);
      a2.storeu(yr + kk + 2 * W);
      a3.storeu(yr + kk + 3 * W);
    }
    for (; kk + W <= k; kk += W) {
      V a0 = V::loadu(yr + kk);
      for (index_t j = 0; j < nnz; ++j) {
        a0 = V::madd(V::broadcast(val(j)), load_x<V, AlignedX>(xrow(j) + kk), a0);
      }
      a0.storeu(yr + kk);
    }
    if (kk < k) {
      for (index_t j = 0; j < nnz; ++j) {
        const value_t v = val(j);
        const value_t* xr = xrow(j);
        for (index_t t = kk; t < k; ++t) yr[t] = detail::fmadd(v, xr[t], yr[t]);
      }
    }
  }
}

/// Two fully-dense tile rows at once:
/// y{0,1}[0..k) += sum_j v{0,1}[j] * staged_row(slots[j])[0..k).
///
/// The caller guarantees both rows enumerate the same slot sequence
/// `slots` (fully dense rows of one panel list the same column set in
/// the same order), so one staged load per (j, kk) feeds both rows.
/// That is the whole win: accumulate_row's 4-vector block is bound by
/// the FMA latency of four dependent chains, while the 4-vector x
/// 2-row block below keeps eight chains live and halves the staged X
/// loads per useful FLOP. Each element still accumulates its nonzeros
/// in ascending j order with one fused step each, so the result is
/// bitwise-identical to two accumulate_row calls for any V.
template <class V>
inline void microgemm_pair(value_t* y0, value_t* y1, const value_t* v0, const value_t* v1,
                           const index_t* slots, const value_t* staged, index_t staged_ld,
                           index_t k, index_t d) {
  const auto xrow = [&](index_t j) {
    return staged + static_cast<std::size_t>(slots[j]) * static_cast<std::size_t>(staged_ld);
  };
  if constexpr (V::width == 1) {
    for (index_t j = 0; j < d; ++j) detail::axpy(y0, xrow(j), v0[j], k);
    for (index_t j = 0; j < d; ++j) detail::axpy(y1, xrow(j), v1[j], k);
    return;
  } else {
    constexpr index_t W = V::width;
    index_t kk = 0;
    // 2Wx2 main block: four live accumulator chains, each staged X load
    // and broadcast shared by both rows. Wider kk-blocking (4W) was
    // measured slower — eight dense chains oversubscribe the FP units
    // while the shared-load win is already captured at 2W.
    for (; kk + 2 * W <= k; kk += 2 * W) {
      V a00 = V::loadu(y0 + kk);
      V a01 = V::loadu(y0 + kk + W);
      V a10 = V::loadu(y1 + kk);
      V a11 = V::loadu(y1 + kk + W);
      for (index_t j = 0; j < d; ++j) {
        const value_t* xr = xrow(j) + kk;
        const V x0 = V::load(xr);
        const V x1 = V::load(xr + W);
        const V b0 = V::broadcast(v0[j]);
        const V b1 = V::broadcast(v1[j]);
        a00 = V::madd(b0, x0, a00);
        a01 = V::madd(b0, x1, a01);
        a10 = V::madd(b1, x0, a10);
        a11 = V::madd(b1, x1, a11);
      }
      a00.storeu(y0 + kk);
      a01.storeu(y0 + kk + W);
      a10.storeu(y1 + kk);
      a11.storeu(y1 + kk + W);
    }
    for (; kk + W <= k; kk += W) {
      V a0 = V::loadu(y0 + kk);
      V a1 = V::loadu(y1 + kk);
      for (index_t j = 0; j < d; ++j) {
        const V x = V::load(xrow(j) + kk);
        a0 = V::madd(V::broadcast(v0[j]), x, a0);
        a1 = V::madd(V::broadcast(v1[j]), x, a1);
      }
      a0.storeu(y0 + kk);
      a1.storeu(y1 + kk);
    }
    if (kk < k) {
      for (index_t j = 0; j < d; ++j) {
        const value_t v = v0[j];
        const value_t* xr = xrow(j);
        for (index_t t = kk; t < k; ++t) y0[t] = detail::fmadd(v, xr[t], y0[t]);
      }
      for (index_t j = 0; j < d; ++j) {
        const value_t v = v1[j];
        const value_t* xr = xrow(j);
        for (index_t t = kk; t < k; ++t) y1[t] = detail::fmadd(v, xr[t], y1[t]);
      }
    }
  }
}

/// emit(j, val(j) * detail::dot(yr, xrow(j), k)) for j in [0, nnz).
///
/// Vector backends take four nonzeros at a time: a dot's 16 lane sums are
/// 16/W vectors fed by contiguous loads, each Y load feeds four X rows,
/// and V::sum16x4 reduces the four dots with shared shuffles. A last group
/// of fewer than four repeats its final row and emits only its own dots.
template <class V, bool AlignedX, class GetX, class GetV, class Emit>
inline void dot_rows(const value_t* yr, index_t k, index_t nnz, GetX&& xrow, GetV&& val,
                     Emit&& emit) {
  if constexpr (V::width == 1) {
    for (index_t j = 0; j < nnz; ++j) emit(j, val(j) * detail::dot(yr, xrow(j), k));
  } else {
    constexpr index_t W = V::width;
    constexpr index_t N = detail::kDotLanes / W;
    static_assert(N * W == detail::kDotLanes, "the vector width must divide the dot's lanes");
    for (index_t j = 0; j < nnz; j += 4) {
      const index_t n = nnz - j < 4 ? nnz - j : 4;
      const value_t* xr[4] = {};
      for (index_t q = 0; q < 4; ++q) xr[q] = xrow(j + (q < n ? q : n - 1));
      V l[4 * N];
      for (V& v : l) v = V::zero();
      index_t kk = 0;
      for (; kk + detail::kDotLanes <= k; kk += detail::kDotLanes) {
        for (index_t i = 0; i < N; ++i) {
          const V y = V::loadu(yr + kk + i * W);
          for (index_t q = 0; q < 4; ++q) {
            l[q * N + i] = V::madd(y, load_x<V, AlignedX>(xr[q] + kk + i * W), l[q * N + i]);
          }
        }
      }
      value_t d[4] = {};
      V::sum16x4(l, d);
      for (index_t q = 0; q < n; ++q) {
        for (index_t t = kk; t < k; ++t) d[q] = detail::fmadd(yr[t], xr[q][t], d[q]);
        emit(j + q, val(j + q) * d[q]);
      }
    }
  }
}

}  // namespace generic

/// The serial kernel entry points of one backend; the backend TUs take
/// their addresses to build KernelTables.
template <class V>
struct KernelSet {
  /// Row `rows ? rows[i] : i` of a dense operand with leading dimension
  /// `ld`: where processed row i reads Y or writes its output.
  template <class T>
  static T* row_at(T* base, index_t ld, const index_t* rows, index_t i) {
    return base + static_cast<std::size_t>(rows ? rows[i] : i) * static_cast<std::size_t>(ld);
  }

  static void spmm_rows(const offset_t* rowptr, const index_t* colidx, const value_t* vals,
                        const value_t* x, index_t x_ld, value_t* y, index_t y_ld, index_t k,
                        const index_t* order, const index_t* y_rows, bool zero_y,
                        index_t pos_begin, index_t pos_end) {
    for (index_t pos = pos_begin; pos < pos_end; ++pos) {
      const index_t i = order ? order[pos] : pos;
      value_t* yr = row_at(y, y_ld, y_rows, i);
      if (zero_y) {
        for (index_t kk = 0; kk < k; ++kk) yr[kk] = value_t{0};
      }
      const offset_t lo = rowptr[static_cast<std::size_t>(i)];
      const index_t nnz = static_cast<index_t>(rowptr[static_cast<std::size_t>(i) + 1] - lo);
      if (nnz == 0) continue;
      const index_t* cs = colidx + lo;
      const value_t* vs = vals + lo;
      generic::accumulate_row<V, false>(
          yr, k, nnz,
          [&](index_t j) {
            return x + static_cast<std::size_t>(cs[j]) * static_cast<std::size_t>(x_ld);
          },
          [&](index_t j) { return vs[j]; });
    }
  }

  static void spmm_panel(const offset_t* dense_rowptr, const index_t* dense_slot,
                         const value_t* dense_val, index_t panel_row_begin,
                         const value_t* staged, index_t staged_ld, value_t* y, index_t y_ld,
                         index_t k, const index_t* y_rows, index_t row_lo, index_t row_hi) {
    for (index_t row = row_lo; row < row_hi; ++row) {
      const std::size_t r = static_cast<std::size_t>(row - panel_row_begin);
      const offset_t lo = dense_rowptr[r];
      const index_t nnz = static_cast<index_t>(dense_rowptr[r + 1] - lo);
      if (nnz == 0) continue;
      value_t* yr = row_at(y, y_ld, y_rows, row);
      const index_t* slots = dense_slot + lo;
      const value_t* vs = dense_val + lo;
      generic::accumulate_row<V, true>(
          yr, k, nnz,
          [&](index_t j) {
            return staged +
                   static_cast<std::size_t>(slots[j]) * static_cast<std::size_t>(staged_ld);
          },
          [&](index_t j) { return vs[j]; });
    }
  }

  static void spmm_panel_dense(const offset_t* dense_rowptr, const index_t* dense_slot,
                               const value_t* dense_val, index_t panel_row_begin,
                               const value_t* staged, index_t staged_ld, value_t* y,
                               index_t y_ld, index_t k, const index_t* y_rows, index_t row_lo,
                               index_t row_hi, index_t dense_cols) {
    index_t row = row_lo;
    while (row < row_hi) {
      const std::size_t r = static_cast<std::size_t>(row - panel_row_begin);
      const offset_t lo = dense_rowptr[r];
      const index_t nnz = static_cast<index_t>(dense_rowptr[r + 1] - lo);
      if (nnz == dense_cols && dense_cols > 0 && row + 1 < row_hi) {
        const offset_t lo1 = dense_rowptr[r + 1];
        const index_t nnz1 = static_cast<index_t>(dense_rowptr[r + 2] - lo1);
        // Fully dense rows built from a column-sorted CSR share one slot
        // sequence; from_parts admits arbitrary per-row slot orders, so
        // verify before sharing loads (O(d) against O(d*k) compute).
        bool same_slots = nnz1 == dense_cols;
        for (index_t j = 0; same_slots && j < dense_cols; ++j) {
          same_slots = dense_slot[lo + j] == dense_slot[lo1 + j];
        }
        if (same_slots) {
          generic::microgemm_pair<V>(
              row_at(y, y_ld, y_rows, row), row_at(y, y_ld, y_rows, row + 1), dense_val + lo,
              dense_val + lo1, dense_slot + lo, staged, staged_ld, k, dense_cols);
          row += 2;
          continue;
        }
      }
      // Partial or unpaired row: the spmm_panel body, element for element.
      if (nnz > 0) {
        value_t* yr = row_at(y, y_ld, y_rows, row);
        const index_t* slots = dense_slot + lo;
        const value_t* vs = dense_val + lo;
        generic::accumulate_row<V, true>(
            yr, k, nnz,
            [&](index_t j) {
              return staged +
                     static_cast<std::size_t>(slots[j]) * static_cast<std::size_t>(staged_ld);
            },
            [&](index_t j) { return vs[j]; });
      }
      ++row;
    }
  }

  static void sddmm_rows(const offset_t* rowptr, const index_t* colidx, const value_t* vals,
                         const value_t* x, index_t x_ld, const value_t* ymat, index_t y_ld,
                         index_t k, value_t* out, const offset_t* src, const index_t* order,
                         const index_t* y_rows, const offset_t* out_shift, index_t pos_begin,
                         index_t pos_end) {
    for (index_t pos = pos_begin; pos < pos_end; ++pos) {
      const index_t i = order ? order[pos] : pos;
      const offset_t base = rowptr[static_cast<std::size_t>(i)];
      const index_t nnz = static_cast<index_t>(rowptr[static_cast<std::size_t>(i) + 1] - base);
      if (nnz == 0) continue;
      const value_t* yr = row_at(ymat, y_ld, y_rows, i);
      const offset_t shift = out_shift ? out_shift[i] : 0;
      const index_t* cs = colidx + base;
      const value_t* vs = vals + base;
      generic::dot_rows<V, false>(
          yr, k, nnz,
          [&](index_t j) {
            return x + static_cast<std::size_t>(cs[j]) * static_cast<std::size_t>(x_ld);
          },
          [&](index_t j) { return vs[j]; },
          [&](index_t j, value_t r) {
            const offset_t slot = base + j;
            out[static_cast<std::size_t>((src ? src[slot] : slot) + shift)] = r;
          });
    }
  }

  static void sddmm_panel(const offset_t* dense_rowptr, const index_t* dense_slot,
                          const value_t* dense_val, const offset_t* dense_src_idx,
                          index_t panel_row_begin, const value_t* staged, index_t staged_ld,
                          const value_t* ymat, index_t y_ld, index_t k, value_t* out,
                          const index_t* y_rows, const offset_t* out_shift, index_t row_lo,
                          index_t row_hi) {
    for (index_t row = row_lo; row < row_hi; ++row) {
      const std::size_t r = static_cast<std::size_t>(row - panel_row_begin);
      const offset_t lo = dense_rowptr[r];
      const index_t nnz = static_cast<index_t>(dense_rowptr[r + 1] - lo);
      if (nnz == 0) continue;
      const value_t* yr = row_at(ymat, y_ld, y_rows, row);
      const offset_t shift = out_shift ? out_shift[row] : 0;
      const index_t* slots = dense_slot + lo;
      const value_t* vs = dense_val + lo;
      const offset_t* srcs = dense_src_idx + lo;
      generic::dot_rows<V, true>(
          yr, k, nnz,
          [&](index_t j) {
            return staged +
                   static_cast<std::size_t>(slots[j]) * static_cast<std::size_t>(staged_ld);
          },
          [&](index_t j) { return vs[j]; },
          [&](index_t j, value_t v) { out[static_cast<std::size_t>(srcs[j] + shift)] = v; });
    }
  }
};

/// Builds one backend's KernelTable at compile time, so the backend TUs'
/// tables are constant-initialised (no code runs in an ISA-flagged TU
/// before dispatch has checked CPU support).
template <class V>
constexpr KernelTable make_table(Isa isa) {
  KernelTable t{};
  t.isa = isa;
  t.spmm_rows = &KernelSet<V>::spmm_rows;
  t.spmm_panel = &KernelSet<V>::spmm_panel;
  t.spmm_panel_dense = &KernelSet<V>::spmm_panel_dense;
  t.sddmm_rows = &KernelSet<V>::sddmm_rows;
  t.sddmm_panel = &KernelSet<V>::sddmm_panel;
  return t;
}

}  // namespace rrspmm::kernels::simd
