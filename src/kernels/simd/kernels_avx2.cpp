// AVX2 backend TU. Compiled with -mavx2 -mfma when the toolchain supports
// them and RRSPMM_ENABLE_SIMD is on; otherwise the guard fails and this
// TU degrades to a nullptr stub. Nothing in this TU runs before the
// dispatcher has confirmed the CPU supports AVX2+FMA.
#include "kernels/simd/backends.hpp"
#include "kernels/simd/kernels_spec.hpp"

namespace rrspmm::kernels::simd {

#if defined(__AVX2__) && defined(__FMA__) && !defined(RRSPMM_SIMD_DISABLED)

namespace {
constexpr KernelTable kTable = make_spec_table<VecAvx2>(Isa::avx2);
}  // namespace

const KernelTable* avx2_table() { return &kTable; }

#else

const KernelTable* avx2_table() { return nullptr; }

#endif

}  // namespace rrspmm::kernels::simd
