// The scalar reference arithmetic: one fused arithmetic, a fused
// multiply-add (one rounding) for every multiply-add in the SpMM and
// SDDMM kernels. The scalar table calls these helpers directly; every
// vector backend reproduces them bit for bit (kernels_generic.hpp).
//
// `static inline` (internal linkage) on purpose: this header is included
// from translation units compiled with ISA-specific flags, and internal
// linkage guarantees each TU keeps its own copy — no comdat can leak
// AVX-encoded code into the baseline build. For the same reason the fma
// is the compiler builtin, not std::fma (an inline library function with
// a comdat): the hardware instruction where the TU's target has one, a
// libm fmaf call (correctly rounded, the same bits) elsewhere. The
// kernels target is compiled with -ffp-contract=off, so only these
// explicit calls fuse.
#pragma once

#include "sparse/types.hpp"

namespace rrspmm::kernels::detail {

/// a*b + c with a single rounding.
static inline value_t fmadd(value_t a, value_t b, value_t c) { return __builtin_fmaf(a, b, c); }

/// y[0..k) = fma(a, x[kk], y[kk]) in ascending kk order — the SpMM step.
static inline void axpy(value_t* y, const value_t* x, value_t a, index_t k) {
  for (index_t kk = 0; kk < k; ++kk) y[kk] = fmadd(a, x[kk], y[kk]);
}

/// Lane count of the SDDMM dot's partial sums.
inline constexpr index_t kDotLanes = 16;

/// The SDDMM dot of y[0..k) and x[0..k): 16 lane partial sums,
/// l[i] = fma(y[kk], x[kk], l[i]) for kk = i mod 16 over the first
/// 16*floor(k/16) elements (one zmm, two ymm or four NEON q registers);
/// a fixed pairwise tree, lane i with i+8, then +4, +2, +1 (V::sum16x4);
/// then an ordered fused tail over the last k mod 16.
static inline value_t dot(const value_t* y, const value_t* x, index_t k) {
  value_t l[kDotLanes] = {};
  index_t kk = 0;
  for (; kk + kDotLanes <= k; kk += kDotLanes) {
    for (index_t i = 0; i < kDotLanes; ++i) l[i] = fmadd(y[kk + i], x[kk + i], l[i]);
  }
  for (index_t s = kDotLanes / 2; s >= 1; s /= 2) {
    for (index_t i = 0; i < s; ++i) l[i] += l[i + s];
  }
  value_t acc = l[0];
  for (; kk < k; ++kk) acc = fmadd(y[kk], x[kk], acc);
  return acc;
}

}  // namespace rrspmm::kernels::detail
