// Fixed-width vector abstraction over value_t (fp32) lanes.
//
// Each vector backend is a small value type with an identical static
// interface; the generic kernels (kernels_generic.hpp) are templates over
// it, so a backend TU compiled with the matching -m flags instantiates
// exactly one specialisation. Only the backends whose feature macros are
// defined in the current TU exist — a TU compiled without -mavx2 simply
// never sees VecAvx2.
//
// Interface (W = width, in fp32 lanes):
//   static V zero()                      all-zero vector
//   static V broadcast(value_t v)        v in every lane
//   static V load(const value_t* p)      aligned load (W*4-byte aligned)
//   static V loadu(const value_t* p)     unaligned load
//   void storeu(value_t* p)              unaligned store
//   static V madd(a, b, c)               a*b + c, fused: one rounding per
//                                        lane, the same bits as the scalar
//                                        reference's detail::fmadd
//   static void sum16x4(const V* l,      detail::dot's pairwise tree for
//                       value_t* out)    four dots at once, in registers:
//                                        dot q's 16 lane sums are
//                                        l[q*16/W .. (q+1)*16/W), its sum
//                                        goes to out[q]
#pragma once

#include "sparse/types.hpp"

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif
#if defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace rrspmm::kernels::simd {

/// The scalar backend's tag: the generic kernels short-circuit width == 1
/// to the reference helpers (kernels/detail/scalar_ref.hpp), so the
/// scalar table runs the reference itself and needs no vector interface.
struct VecScalar {
  static constexpr index_t width = 1;
};

#if defined(__AVX2__) && defined(__FMA__)
struct VecAvx2 {
  static constexpr index_t width = 8;
  __m256 r;

  static VecAvx2 zero() { return {_mm256_setzero_ps()}; }
  static VecAvx2 broadcast(value_t v) { return {_mm256_set1_ps(v)}; }
  static VecAvx2 load(const value_t* p) { return {_mm256_load_ps(p)}; }
  static VecAvx2 loadu(const value_t* p) { return {_mm256_loadu_ps(p)}; }
  void storeu(value_t* p) const { _mm256_storeu_ps(p, r); }
  static VecAvx2 madd(VecAvx2 a, VecAvx2 b, VecAvx2 c) {
    return {_mm256_fmadd_ps(a.r, b.r, c.r)};
  }
  /// Dot q's lanes 0..7 are in l[2q], lanes 8..15 in l[2q+1]. Each dot's
  /// i+8 step is one add; the i+4 step packs two dots' quarters into one
  /// ymm (swapping 128-bit halves), and i+2, i+1 permute within the
  /// halves, leaving the two sums in lanes 0 and 4.
  static void sum16x4(const VecAvx2* l, value_t* out) {
    const auto pair = [&](const VecAvx2* a, const VecAvx2* b, value_t* o) {
      const __m256 sa = _mm256_add_ps(a[0].r, a[1].r);  // i + 8
      const __m256 sb = _mm256_add_ps(b[0].r, b[1].r);
      // i + 4, with a's sums in lanes 0..3 and b's in lanes 4..7.
      __m256 t = _mm256_add_ps(_mm256_permute2f128_ps(sa, sb, 0x20),
                               _mm256_permute2f128_ps(sa, sb, 0x31));
      t = _mm256_add_ps(t, _mm256_permute_ps(t, _MM_SHUFFLE(1, 0, 3, 2)));  // i + 2
      t = _mm256_add_ps(t, _mm256_permute_ps(t, _MM_SHUFFLE(2, 3, 0, 1)));  // i + 1
      alignas(32) value_t lanes[8];
      _mm256_store_ps(lanes, t);
      o[0] = lanes[0];
      o[1] = lanes[4];
    };
    pair(l, l + 2, out);
    pair(l + 4, l + 6, out + 2);
  }
};
#endif  // __AVX2__ && __FMA__

#if defined(__AVX512F__)
struct VecAvx512 {
  static constexpr index_t width = 16;
  __m512 r;

  static VecAvx512 zero() { return {_mm512_setzero_ps()}; }
  static VecAvx512 broadcast(value_t v) { return {_mm512_set1_ps(v)}; }
  static VecAvx512 load(const value_t* p) { return {_mm512_load_ps(p)}; }
  static VecAvx512 loadu(const value_t* p) { return {_mm512_loadu_ps(p)}; }
  void storeu(value_t* p) const { _mm512_storeu_ps(p, r); }
  static VecAvx512 madd(VecAvx512 a, VecAvx512 b, VecAvx512 c) {
    return {_mm512_fmadd_ps(a.r, b.r, c.r)};
  }
  /// Dot q's 16 lanes are l[q]. The i+8 step packs two dots' halves per
  /// zmm (128-bit chunks [a0 a1 b0 b1] + [a2 a3 b2 b3]), the i+4 step all
  /// four dots' quarters (dot q in chunk q); i+2 and i+1 then permute
  /// within the chunks, leaving dot q's sum in lane 4q. The all-ones
  /// maskz intrinsics compile to the plain instructions; the unmasked
  /// ones pass _mm512_undefined_ps() through, which trips gcc 12's
  /// -Wmaybe-uninitialized.
  static void sum16x4(const VecAvx512* l, value_t* out) {
    constexpr __mmask16 kAll = 0xFFFF;
    const auto halves = [&](__m512 a, __m512 b) {  // i + 8
      return _mm512_add_ps(_mm512_maskz_shuffle_f32x4(kAll, a, b, _MM_SHUFFLE(1, 0, 1, 0)),
                           _mm512_maskz_shuffle_f32x4(kAll, a, b, _MM_SHUFFLE(3, 2, 3, 2)));
    };
    const __m512 ab = halves(l[0].r, l[1].r);
    const __m512 cd = halves(l[2].r, l[3].r);
    __m512 s = _mm512_add_ps(_mm512_maskz_shuffle_f32x4(kAll, ab, cd, _MM_SHUFFLE(2, 0, 2, 0)),
                             _mm512_maskz_shuffle_f32x4(kAll, ab, cd, _MM_SHUFFLE(3, 1, 3, 1)));
    s = _mm512_add_ps(s, _mm512_maskz_permute_ps(kAll, s, _MM_SHUFFLE(1, 0, 3, 2)));  // i + 2
    s = _mm512_add_ps(s, _mm512_maskz_permute_ps(kAll, s, _MM_SHUFFLE(2, 3, 0, 1)));  // i + 1
    alignas(64) value_t lanes[16];
    _mm512_store_ps(lanes, s);
    for (index_t q = 0; q < 4; ++q) out[q] = lanes[4 * q];
  }
};
#endif  // __AVX512F__

#if defined(__ARM_NEON)
struct VecNeon {
  static constexpr index_t width = 4;
  float32x4_t r;

  static VecNeon zero() { return {vdupq_n_f32(0.0f)}; }
  static VecNeon broadcast(value_t v) { return {vdupq_n_f32(v)}; }
  static VecNeon load(const value_t* p) { return {vld1q_f32(p)}; }
  static VecNeon loadu(const value_t* p) { return {vld1q_f32(p)}; }
  void storeu(value_t* p) const { vst1q_f32(p, r); }
  static VecNeon madd(VecNeon a, VecNeon b, VecNeon c) { return {vfmaq_f32(c.r, a.r, b.r)}; }
  /// Dot q's lane 4i+c is lane c of l[4q+i].
  static void sum16x4(const VecNeon* l, value_t* out) {
    for (index_t q = 0; q < 4; ++q) {
      const VecNeon* d = l + 4 * q;
      const float32x4_t s = vaddq_f32(vaddq_f32(d[0].r, d[2].r),   // i + 8
                                      vaddq_f32(d[1].r, d[3].r));  // then i + 4
      const float32x2_t t = vadd_f32(vget_low_f32(s), vget_high_f32(s));  // i + 2
      out[q] = vget_lane_f32(t, 0) + vget_lane_f32(t, 1);                 // i + 1
    }
  }
};
#endif  // __ARM_NEON

}  // namespace rrspmm::kernels::simd
