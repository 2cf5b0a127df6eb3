// Hierarchical clustering row-reorderer — a faithful implementation of the
// paper's Algorithm 3.
//
// Candidate pairs (from LSH) seed a max-heap keyed by exact Jaccard
// similarity. Each step pops the most-similar pair; if both endpoints are
// cluster representatives the smaller cluster merges into the larger,
// otherwise the pair is re-keyed to the current representatives and
// re-inserted. A cluster whose size reaches `threshold_size` is retired
// from further merging ("deleted") so clusters stay panel-sized. The
// output permutation lists original row ids cluster by cluster, clusters
// ordered by first appearance of their representative — reproducing the
// paper's worked example (Fig 6): rows [0,2,4,1,3,5] for the Fig 1a matrix.
#pragma once

#include <vector>

#include "lsh/candidates.hpp"
#include "sparse/csr.hpp"

namespace rrspmm::cluster {

using lsh::CandidatePair;
using sparse::CsrMatrix;

struct ClusterConfig {
  /// A cluster is retired once it reaches this many rows (paper uses 256).
  index_t threshold_size = 256;
};

struct ClusterResult {
  /// Gather permutation: position p holds the original row id placed at p.
  std::vector<index_t> order;
  /// Final number of clusters (retired clusters included).
  index_t num_clusters = 0;
  /// How many merge operations were performed.
  index_t merges = 0;
  /// How many re-keyed pairs were pushed back into the heap (the paper's
  /// 'else' branch) — reported by the ablation benches.
  index_t requeued = 0;
};

/// Runs Alg 3 on `m` with the given candidate pairs. Deterministic: heap
/// ties are broken by (similarity, a, b). `m` is only used to compute
/// Jaccard similarities for re-keyed pairs.
ClusterResult cluster_reorder(const CsrMatrix& m, const std::vector<CandidatePair>& pairs,
                              const ClusterConfig& cfg);

}  // namespace rrspmm::cluster
