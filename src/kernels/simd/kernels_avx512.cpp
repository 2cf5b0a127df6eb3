// AVX-512 backend TU. Compiled with -mavx512f when supported and
// RRSPMM_ENABLE_SIMD is on; nullptr stub otherwise. Nothing in this TU
// runs before the dispatcher has confirmed the CPU supports AVX-512F.
#include "kernels/simd/backends.hpp"
#include "kernels/simd/kernels_spec.hpp"

namespace rrspmm::kernels::simd {

#if defined(__AVX512F__) && !defined(RRSPMM_SIMD_DISABLED)

namespace {
constexpr KernelTable kTable = make_spec_table<VecAvx512>(Isa::avx512);
}  // namespace

const KernelTable* avx512_table() { return &kTable; }

#else

const KernelTable* avx512_table() { return nullptr; }

#endif

}  // namespace rrspmm::kernels::simd
