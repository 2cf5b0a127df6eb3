// Candidate-pair generation by LSH banding (paper §3.2).
//
// The signature is split into siglen/bsize bands of bsize entries; two
// rows whose signatures agree on any whole band land in the same bucket
// of that band and become a candidate pair. Exact Jaccard similarity is
// then computed for every candidate (deduplicated) pair, and pairs below
// `min_similarity` are discarded — those are LSH false positives.
//
// Buckets are found by a sort-based group-by, one band at a time: each
// band holds one (band-hash, row) entry per live row, is sorted by
// (hash, row) on its own, then scanned for equal-hash runs. Each run is a
// bucket with members in ascending row order. The emitted pair keys are
// partitioned by their smaller row, and each part is sorted and
// deduplicated on its own, which yields the globally sorted unique pair
// set. Bands and parts are independent, so they fan out over a worker
// pool and the output is the same under any thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "lsh/minhash.hpp"
#include "sparse/csr.hpp"

namespace rrspmm::lsh {

struct LshConfig {
  int siglen = 128;  ///< signature length (paper default)
  int bsize = 2;     ///< band size (paper default)
  /// Buckets larger than this are not expanded all-pairs; instead the
  /// bucket members are chained pairwise (i, i+1), which keeps them
  /// connectable by the clustering stage while bounding E (the paper
  /// assumes E ∝ N for the complexity argument).
  int bucket_cap = 64;
  /// Candidate pairs with exact Jaccard below this are dropped ("pairs
  /// that may have similarities larger than a threshold", §1).
  double min_similarity = 0.1;
  std::uint64_t seed = 0x5eedULL;
  /// Signature scheme: the paper's classic MinHash (default), or
  /// one-permutation hashing — ~siglen x cheaper signatures at slightly
  /// lower recall on short rows (see minhash.hpp and the parameter
  /// ablation bench).
  MinHashScheme scheme = MinHashScheme::kClassic;
};

struct CandidatePair {
  index_t a;          ///< smaller row id
  index_t b;          ///< larger row id
  double similarity;  ///< exact Jaccard of the two rows
};

/// Wall-clock breakdown of one reordering round's preprocessing phases,
/// the measured counterpart of the paper's Fig 12 lump figure. merge_ms
/// (the clustering stage) is filled by core::reorder_rows.
struct PhaseTimings {
  double sig_ms = 0.0;    ///< MinHash signature computation
  double band_ms = 0.0;   ///< banding group-by + pair dedup
  double score_ms = 0.0;  ///< exact Jaccard verification + filter
  double merge_ms = 0.0;  ///< hierarchical clustering (Alg 3)
};

/// Runs the full LSH pipeline: signatures -> banding -> dedup -> exact
/// similarity filter. The result is sorted by (a, b) for determinism.
/// With a pool, every phase fans out over the workers and the result is
/// bitwise identical to the sequential run (pool == nullptr); the
/// parallel signature/scoring chunks carry the preproc.signature /
/// preproc.score fault probes. Timings (sans merge_ms) are written to
/// `timings` when non-null.
std::vector<CandidatePair> find_candidate_pairs(const CsrMatrix& m, const LshConfig& cfg,
                                                runtime::WorkerPool* pool = nullptr,
                                                PhaseTimings* timings = nullptr);

/// Banding only: emits deduplicated row-id pairs without similarity
/// scoring (exposed for tests and for the ablation benches).
std::vector<std::pair<index_t, index_t>> band_pairs(const SignatureMatrix& sig,
                                                    const CsrMatrix& m, const LshConfig& cfg,
                                                    runtime::WorkerPool* pool = nullptr);

}  // namespace rrspmm::lsh
