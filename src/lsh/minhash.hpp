// MinHash signatures for Jaccard-similarity LSH (paper §3.2, following
// Leskovec/Rajaraman/Ullman, "Mining of Massive Datasets", ch. 3).
//
// Each sparse row is a set of column indices; signature entry k of row i
// is min over the row's columns c of h_k(c), where h_k is a 64-bit mixing
// hash salted by k. Pr[sig_k(A) == sig_k(B)] == J(A, B), so banding the
// signatures finds high-similarity pairs without the O(N^2) scan.
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/csr.hpp"

namespace rrspmm::runtime {
class WorkerPool;
}

namespace rrspmm::lsh {

using sparse::CsrMatrix;
using rrspmm::index_t;

/// Signature matrix: row-major, `siglen` entries per matrix row.
/// Rows with no nonzeros get the sentinel UINT32_MAX in every slot.
class SignatureMatrix {
 public:
  SignatureMatrix() = default;
  SignatureMatrix(index_t rows, int siglen)
      : rows_(rows), siglen_(siglen),
        data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(siglen), UINT32_MAX) {}

  index_t rows() const { return rows_; }
  int siglen() const { return siglen_; }

  std::uint32_t* row(index_t i) {
    return data_.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(siglen_);
  }
  const std::uint32_t* row(index_t i) const {
    return data_.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(siglen_);
  }

  /// Fraction of equal entries between two signatures — the MinHash
  /// estimate of the Jaccard similarity of the underlying sets.
  double estimate_similarity(index_t a, index_t b) const;

 private:
  index_t rows_ = 0;
  int siglen_ = 0;
  std::vector<std::uint32_t> data_;
};

/// The salted column hash used for signature slot k. Exposed for tests.
std::uint32_t minhash_hash(index_t column, int k, std::uint64_t seed);

/// Computes the signature matrix — the "embarrassingly parallel" part of
/// the paper's preprocessing (§5.4). With a pool, the row range is
/// sharded over the workers in fixed chunks; each row's signature is
/// independent, so the result is bitwise identical to the sequential
/// loop (pool == nullptr) at any thread count. The parallel path carries
/// the preproc.signature fault probe per chunk.
SignatureMatrix compute_signatures(const CsrMatrix& m, int siglen, std::uint64_t seed,
                                   runtime::WorkerPool* pool = nullptr);

/// One-permutation MinHash with optimal densification (Shrivastava,
/// ICML'17): hashes each column ONCE, bins the hash into siglen buckets,
/// and keeps the per-bucket minimum; empty buckets borrow from a
/// pseudo-random occupied bucket so the collision probability stays an
/// unbiased Jaccard estimator. Cost drops from O(siglen * nnz) to
/// O(nnz + siglen) per row — the paper's future-work direction of
/// cutting the dominant preprocessing term. Slightly noisier for short
/// rows (fewer occupied buckets), which the ablation bench quantifies.
SignatureMatrix compute_signatures_oph(const CsrMatrix& m, int siglen, std::uint64_t seed,
                                       runtime::WorkerPool* pool = nullptr);

/// Signature scheme selector used by LshConfig.
enum class MinHashScheme {
  kClassic,  ///< siglen independent hashes per column (paper's method)
  kOnePermutation,  ///< one hash per column + densification
};

}  // namespace rrspmm::lsh
