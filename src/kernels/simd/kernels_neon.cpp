// NEON backend TU. NEON is part of the aarch64 baseline, so no extra
// compile flags are needed — the guard is simply whether the target
// architecture defines __ARM_NEON (and SIMD was not forced off).
#include "kernels/simd/backends.hpp"
#include "kernels/simd/kernels_spec.hpp"

namespace rrspmm::kernels::simd {

#if defined(__ARM_NEON) && !defined(RRSPMM_SIMD_DISABLED)

namespace {
constexpr KernelTable kTable = make_spec_table<VecNeon>(Isa::neon);
}  // namespace

const KernelTable* neon_table() { return &kTable; }

#else

const KernelTable* neon_table() { return nullptr; }

#endif

}  // namespace rrspmm::kernels::simd
