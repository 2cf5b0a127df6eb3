// AOT plan-specialized SpMM / SDDMM kernel bodies: the same loops as
// kernels_generic.hpp, template-instantiated with compile-time constants
// the plan statistics justify.
//
// Two specialization axes, both pure instruction-schedule changes:
//
//  * K-width (KW in kSpecKWidths): the K loop's trip counts become
//    compile-time constants — the optimizer drops the register-block
//    tail tests and unrolls fully. The SpMM and SDDMM row drivers get
//    KW instantiations.
//  * Short rows (nnz <= kShortRowMax): the nonzero loop is dispatched to
//    an instantiation whose trip count is an integral_constant, so it
//    unrolls completely, and `zero_y` rows compute into zero-initialised
//    register accumulators with a single store instead of a zero-store /
//    reload round trip through the output row.
//
// Bitwise-equality contract, inherited from kernels_generic.hpp and
// preserved here: every output element is still the ordered fused chain
// fma(v1, x1, fma(v0, x0, 0)) ..., and every SDDMM dot the reference's
// 16-lane shape. Constant-folding a trip count, unrolling a loop, or
// starting an accumulator at literal zero instead of loading a
// just-zeroed memory cell performs the identical operation sequence on
// identical values, so each specialized entry is bit-identical to its
// generic counterpart — and therefore to the scalar reference.
//
// Included only from the per-ISA backend TUs (same comdat caveats as
// kernels_generic.hpp: raw loops over raw pointers, nothing else).
#pragma once

#include <type_traits>

#include "kernels/simd/kernels_generic.hpp"
#include "kernels/simd/specialize.hpp"

namespace rrspmm::kernels::simd {

namespace spec {

/// yr[0..k) = sum_j val(j) * xrow(j)[0..k), overwriting: the accumulate
/// pattern of generic::accumulate_row with the accumulators starting at
/// V::zero() instead of loading the (just-zeroed) output row, and one
/// store at the end. Same chains — loading a zeroed cell and starting at
/// literal zero feed the identical first fma — so the result is
/// bit-identical to zero-fill + accumulate_row, without the extra store
/// and reload of the output row.
template <class V, class GetX, class GetV>
inline void accumulate_row_fresh(value_t* yr, index_t k, index_t nnz, GetX&& xrow, GetV&& val) {
  if constexpr (V::width == 1) {
    for (index_t t = 0; t < k; ++t) yr[t] = value_t{0};
    for (index_t j = 0; j < nnz; ++j) detail::axpy(yr, xrow(j), val(j), k);
    return;
  } else {
    constexpr index_t W = V::width;
    index_t kk = 0;
    for (; kk + 4 * W <= k; kk += 4 * W) {
      V a0 = V::zero();
      V a1 = V::zero();
      V a2 = V::zero();
      V a3 = V::zero();
      for (index_t j = 0; j < nnz; ++j) {
        const V v = V::broadcast(val(j));
        const value_t* xr = xrow(j) + kk;
        a0 = V::madd(v, V::loadu(xr), a0);
        a1 = V::madd(v, V::loadu(xr + W), a1);
        a2 = V::madd(v, V::loadu(xr + 2 * W), a2);
        a3 = V::madd(v, V::loadu(xr + 3 * W), a3);
      }
      a0.storeu(yr + kk);
      a1.storeu(yr + kk + W);
      a2.storeu(yr + kk + 2 * W);
      a3.storeu(yr + kk + 3 * W);
    }
    // A 2W stage the generic body lacks: one nonzero sweep covers the
    // half-block (k == 2W is exactly the K=32 case under AVX-512), so
    // val(j) is loaded and broadcast once instead of once per W block.
    // Blocking width never affects the bits — lanes still never mix kk
    // positions and each element keeps its ordered chain.
    for (; kk + 2 * W <= k; kk += 2 * W) {
      V a0 = V::zero();
      V a1 = V::zero();
      for (index_t j = 0; j < nnz; ++j) {
        const V v = V::broadcast(val(j));
        const value_t* xr = xrow(j) + kk;
        a0 = V::madd(v, V::loadu(xr), a0);
        a1 = V::madd(v, V::loadu(xr + W), a1);
      }
      a0.storeu(yr + kk);
      a1.storeu(yr + kk + W);
    }
    for (; kk + W <= k; kk += W) {
      V a0 = V::zero();
      for (index_t j = 0; j < nnz; ++j) {
        a0 = V::madd(V::broadcast(val(j)), V::loadu(xrow(j) + kk), a0);
      }
      a0.storeu(yr + kk);
    }
    // Tail elements, scalar. Loop interchange (element outer, nonzero
    // inner) leaves each element's chain untouched.
    for (; kk < k; ++kk) {
      value_t acc = 0;
      for (index_t j = 0; j < nnz; ++j) acc = detail::fmadd(val(j), xrow(j)[kk], acc);
      yr[kk] = acc;
    }
  }
}

/// Dispatches nnz <= kShortRowMax to an instantiation whose trip count
/// is a compile-time constant (integral_constant through the generic
/// lambda), fully unrolling the nonzero loop. `Fresh` selects the
/// overwrite (zero_y) body, otherwise the accumulate body.
template <class V, bool Fresh, class GetX, class GetV>
inline void accumulate_row_short(value_t* yr, index_t k, index_t nnz, GetX&& xrow, GetV&& val) {
  const auto run = [&](auto n) {
    constexpr index_t kN = decltype(n)::value;
    if constexpr (Fresh) {
      accumulate_row_fresh<V>(yr, k, kN, xrow, val);
    } else {
      generic::accumulate_row<V, false>(yr, k, kN, xrow, val);
    }
  };
  switch (nnz) {
    case 1: run(std::integral_constant<index_t, 1>{}); break;
    case 2: run(std::integral_constant<index_t, 2>{}); break;
    case 3: run(std::integral_constant<index_t, 3>{}); break;
    case 4: run(std::integral_constant<index_t, 4>{}); break;
    default:
      if constexpr (Fresh) {
        accumulate_row_fresh<V>(yr, k, nnz, xrow, val);
      } else {
        generic::accumulate_row<V, false>(yr, k, nnz, xrow, val);
      }
      break;
  }
}
static_assert(kShortRowMax == 4, "accumulate_row_short unrolls cases 1..kShortRowMax");

}  // namespace spec

/// Specialized serial entry points for one (backend, K-width) pair.
/// KW == 0 is the runtime-K "classed" driver: no K constant, but still
/// the short-row unrolled bodies and the fused zero+accumulate. KW > 0
/// additionally folds K: callers must guarantee k == KW.
template <class V, index_t KW>
struct SpecKernelSet {
  static void spmm_rows(const offset_t* rowptr, const index_t* colidx, const value_t* vals,
                        const value_t* x, index_t x_ld, value_t* y, index_t y_ld, index_t k,
                        const index_t* order, const index_t* y_rows, bool zero_y,
                        index_t pos_begin, index_t pos_end) {
    const index_t kc = KW > 0 ? KW : k;
    for (index_t pos = pos_begin; pos < pos_end; ++pos) {
      const index_t i = order ? order[pos] : pos;
      value_t* yr = KernelSet<V>::row_at(y, y_ld, y_rows, i);
      const offset_t lo = rowptr[static_cast<std::size_t>(i)];
      const index_t nnz = static_cast<index_t>(rowptr[static_cast<std::size_t>(i) + 1] - lo);
      if (nnz == 0) {
        if (zero_y) {
          for (index_t kk = 0; kk < kc; ++kk) yr[kk] = value_t{0};
        }
        continue;
      }
      const index_t* cs = colidx + lo;
      const value_t* vs = vals + lo;
      const auto xrow = [&](index_t j) {
        return x + static_cast<std::size_t>(cs[j]) * static_cast<std::size_t>(x_ld);
      };
      const auto val = [&](index_t j) { return vs[j]; };
      // The per-row trip-count switch pays only while the row body is
      // short; past ~2 K-width units the unrolled straight-line code
      // stops helping (front-end pressure, per-row dispatch branch) and
      // the fused zero+accumulate is the whole win.
      const bool unroll_short = nnz <= kShortRowMax && kc <= 2 * kSpecKWidths[0];
      if (zero_y) {
        if (unroll_short) {
          spec::accumulate_row_short<V, true>(yr, kc, nnz, xrow, val);
        } else {
          spec::accumulate_row_fresh<V>(yr, kc, nnz, xrow, val);
        }
      } else {
        if (unroll_short) {
          spec::accumulate_row_short<V, false>(yr, kc, nnz, xrow, val);
        } else {
          generic::accumulate_row<V, false>(yr, kc, nnz, xrow, val);
        }
      }
    }
  }

  // The SDDMM entry forwards to the generic body with the K argument
  // replaced by the compile-time constant; the in-class definition is
  // implicitly inline, so the optimizer folds KW through the loop nest.
  static void sddmm_rows(const offset_t* rowptr, const index_t* colidx, const value_t* vals,
                         const value_t* x, index_t x_ld, const value_t* ymat, index_t y_ld,
                         index_t k, value_t* out, const offset_t* src, const index_t* order,
                         const index_t* y_rows, const offset_t* out_shift, index_t pos_begin,
                         index_t pos_end) {
    KernelSet<V>::sddmm_rows(rowptr, colidx, vals, x, x_ld, ymat, y_ld, KW > 0 ? KW : k, out,
                             src, order, y_rows, out_shift, pos_begin, pos_end);
  }
};

/// make_table plus the specialized entries (stub backends keep them null,
/// and select_kernels then falls back to the generic path).
template <class V>
constexpr KernelTable make_spec_table(Isa isa) {
  KernelTable t = make_table<V>(isa);
  t.spmm_rows_kw[0] = &SpecKernelSet<V, kSpecKWidths[0]>::spmm_rows;
  t.spmm_rows_kw[1] = &SpecKernelSet<V, kSpecKWidths[1]>::spmm_rows;
  t.spmm_rows_kw[2] = &SpecKernelSet<V, kSpecKWidths[2]>::spmm_rows;
  t.sddmm_rows_kw[0] = &SpecKernelSet<V, kSpecKWidths[0]>::sddmm_rows;
  t.sddmm_rows_kw[1] = &SpecKernelSet<V, kSpecKWidths[1]>::sddmm_rows;
  t.sddmm_rows_kw[2] = &SpecKernelSet<V, kSpecKWidths[2]>::sddmm_rows;
  t.spmm_rows_classed = &SpecKernelSet<V, 0>::spmm_rows;
  static_assert(kSpecKWidthCount == 3, "extend the slot assignments above");
  return t;
}

}  // namespace rrspmm::kernels::simd
