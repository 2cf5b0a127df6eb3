#include "cluster/hierarchy.hpp"

#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "sparse/stats.hpp"

namespace rrspmm::cluster {

namespace {

struct HeapEntry {
  double similarity;
  index_t a;
  index_t b;
};

// Max-heap by similarity; deterministic tie-break on (a, b) so the
// reordering is reproducible run to run.
struct HeapLess {
  bool operator()(const HeapEntry& x, const HeapEntry& y) const {
    if (x.similarity != y.similarity) return x.similarity < y.similarity;
    if (x.a != y.a) return x.a > y.a;
    return x.b > y.b;
  }
};

std::uint64_t pair_key(index_t a, index_t b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(b));
}

}  // namespace

ClusterResult cluster_reorder(const CsrMatrix& m, const std::vector<CandidatePair>& pairs,
                              const ClusterConfig& cfg) {
  const index_t n = m.rows();
  ClusterResult result;

  // Alg 3 state. We keep the paper's explicit arrays (rather than the
  // UnionFind class) because the merge direction is dictated by the
  // similarity pair, not by the default union policy.
  std::vector<index_t> cluster_id(static_cast<std::size_t>(n));
  std::vector<index_t> cluster_sz(static_cast<std::size_t>(n), 1);
  std::vector<bool> deleted(static_cast<std::size_t>(n), false);
  for (index_t i = 0; i < n; ++i) cluster_id[static_cast<std::size_t>(i)] = i;
  index_t nclusters = n;

  auto root = [&](index_t i) {
    while (i != cluster_id[static_cast<std::size_t>(i)]) {
      cluster_id[static_cast<std::size_t>(i)] =
          cluster_id[static_cast<std::size_t>(cluster_id[static_cast<std::size_t>(i)])];
      i = cluster_id[static_cast<std::size_t>(i)];
    }
    return i;
  };

  // Bulk-heapify: materialise every candidate as a heap entry, then let
  // the priority_queue constructor make_heap in O(E), instead of E pushes
  // at O(E log E). The pop sequence is unchanged: the candidate list is
  // deduplicated, so HeapLess is a strict total order over the entries
  // and the heap's extraction order is unique whatever the build path.
  std::vector<HeapEntry> seed_entries;
  seed_entries.reserve(pairs.size());
  std::unordered_set<std::uint64_t> candidate_keys;
  candidate_keys.reserve(pairs.size() * 2);
  for (const CandidatePair& p : pairs) {
    seed_entries.push_back(HeapEntry{p.similarity, p.a, p.b});
    candidate_keys.insert(pair_key(p.a, p.b));
  }
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapLess> sim_queue(
      HeapLess{}, std::move(seed_entries));

  while (!sim_queue.empty() && nclusters > 0) {
    const HeapEntry top = sim_queue.top();
    sim_queue.pop();
    index_t i = top.a;
    index_t j = top.b;

    if (i == cluster_id[static_cast<std::size_t>(i)] &&
        j == cluster_id[static_cast<std::size_t>(j)]) {
      if (deleted[static_cast<std::size_t>(i)] || deleted[static_cast<std::size_t>(j)]) continue;
      if (i == j) continue;
      // Merge the smaller cluster into the larger one.
      if (cluster_sz[static_cast<std::size_t>(i)] < cluster_sz[static_cast<std::size_t>(j)]) {
        cluster_id[static_cast<std::size_t>(i)] = j;
        cluster_sz[static_cast<std::size_t>(j)] += cluster_sz[static_cast<std::size_t>(i)];
        --nclusters;
        ++result.merges;
        if (cluster_sz[static_cast<std::size_t>(j)] >= cfg.threshold_size) {
          deleted[static_cast<std::size_t>(j)] = true;
          --nclusters;
        }
      } else {
        cluster_id[static_cast<std::size_t>(j)] = i;
        cluster_sz[static_cast<std::size_t>(i)] += cluster_sz[static_cast<std::size_t>(j)];
        --nclusters;
        ++result.merges;
        if (cluster_sz[static_cast<std::size_t>(i)] >= cfg.threshold_size) {
          deleted[static_cast<std::size_t>(i)] = true;
          --nclusters;
        }
      }
    } else {
      i = root(i);
      j = root(j);
      if (deleted[static_cast<std::size_t>(i)] || deleted[static_cast<std::size_t>(j)]) continue;
      if (i != j && !candidate_keys.contains(pair_key(i, j))) {
        sim_queue.push(HeapEntry{sparse::jaccard(m.row_cols(i), m.row_cols(j)), i, j});
        candidate_keys.insert(pair_key(i, j));
        ++result.requeued;
      }
    }
  }

  // Emit row ids cluster by cluster, clusters in order of the first row
  // that belongs to them (matches the paper's Fig 6 output).
  std::unordered_map<index_t, index_t> slot_of_root;
  std::vector<std::vector<index_t>> slots;
  for (index_t i = 0; i < n; ++i) {
    const index_t r = root(i);
    auto [it, inserted] = slot_of_root.try_emplace(r, static_cast<index_t>(slots.size()));
    if (inserted) slots.emplace_back();
    slots[static_cast<std::size_t>(it->second)].push_back(i);
  }
  result.order.reserve(static_cast<std::size_t>(n));
  for (const auto& slot : slots) {
    result.order.insert(result.order.end(), slot.begin(), slot.end());
  }
  result.num_clusters = static_cast<index_t>(slots.size());
  return result;
}

}  // namespace rrspmm::cluster
