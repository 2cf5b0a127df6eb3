// Cache-line-aligned allocation support for dense operands and kernel
// staging buffers. The SIMD kernel layer (src/kernels/simd) reads the
// ASpT staged panel through aligned vector loads, which requires both the
// buffer base and the per-row leading dimension to be multiples of the
// widest vector register (64 bytes covers AVX-512).
#pragma once

#include <cstddef>
#include <new>
#include <utility>
#include <vector>

#include "sparse/types.hpp"

namespace rrspmm::sparse {

/// Alignment (bytes) used for dense storage and staging buffers: one
/// cache line, and the width of a ZMM register.
inline constexpr std::size_t kDenseAlignBytes = 64;

/// Minimal C++17 aligned allocator (std::allocator guarantees only
/// alignof(std::max_align_t), typically 16 bytes).
template <class T, std::size_t Align = kDenseAlignBytes>
struct AlignedAllocator {
  using value_type = T;
  static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0,
                "alignment must be a power of two covering alignof(T)");

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  template <class U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{Align}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{Align});
  }

  /// Default-initialises: resize(n) leaves trivial elements uninitialised
  /// (DenseMatrix::uninitialized); elements given a value are built from it.
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
  template <class U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) { return true; }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) { return false; }
};

/// Vector whose data() is 64-byte aligned. Used for DenseMatrix storage
/// and for the per-thread ASpT panel staging buffers.
template <class T>
using AlignedVector = std::vector<T, AlignedAllocator<T, kDenseAlignBytes>>;

/// Rounds a leading dimension (in elements) up to a multiple of the
/// dense alignment, so consecutive rows of an aligned base stay aligned.
inline index_t aligned_ld(index_t cols) {
  constexpr index_t step = static_cast<index_t>(kDenseAlignBytes / sizeof(value_t));
  return ((cols + step - 1) / step) * step;
}

}  // namespace rrspmm::sparse
