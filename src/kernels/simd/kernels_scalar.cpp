// Scalar backend: always compiled, no ISA flags. Its kernels call the
// reference helpers directly, so this table is the scalar reference.
#include "kernels/simd/backends.hpp"
#include "kernels/simd/kernels_spec.hpp"

namespace rrspmm::kernels::simd {

namespace {
constexpr KernelTable kTable = make_spec_table<VecScalar>(Isa::scalar);
}  // namespace

const KernelTable* scalar_table() { return &kTable; }

}  // namespace rrspmm::kernels::simd
