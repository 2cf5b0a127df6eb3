// Per-ISA kernel table accessors, one per backend translation unit.
//
// Each returns a pointer to the backend's one table, or nullptr when the
// backend was not compiled in (TU built without the matching -m flags,
// wrong architecture, or RRSPMM_ENABLE_SIMD=OFF). The dispatcher
// (dispatch.cpp) combines this with runtime CPU detection.
#pragma once

#include "kernels/simd/table.hpp"

namespace rrspmm::kernels::simd {

const KernelTable* scalar_table();  // never nullptr
const KernelTable* neon_table();
const KernelTable* avx2_table();
const KernelTable* avx512_table();

}  // namespace rrspmm::kernels::simd
