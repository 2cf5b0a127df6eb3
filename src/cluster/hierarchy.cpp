#include "cluster/hierarchy.hpp"

#include <algorithm>
#include <queue>
#include <unordered_set>

#include "runtime/parallel_sort.hpp"
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
                              const ClusterConfig& cfg, runtime::WorkerPool* pool) {
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

  // The paper's max-heap, split in two. Seeds never change once built, so
  // they are sorted once into pop order and walked with a cursor; only the
  // few re-keyed pairs go through a real heap. Every entry has a distinct
  // (a, b) — seeds are deduplicated and a re-keyed pair is pushed only
  // when its key is new — so HeapLess is a strict total order over them
  // and the merged pop sequence is exactly the single heap's.
  std::vector<HeapEntry> seeds(pairs.size());
  std::vector<std::uint64_t> seed_keys(pairs.size());
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    seeds[k] = HeapEntry{pairs[k].similarity, pairs[k].a, pairs[k].b};
    seed_keys[k] = pair_key(pairs[k].a, pairs[k].b);
  }
  runtime::parallel_sort(
      seeds, [](const HeapEntry& x, const HeapEntry& y) { return HeapLess{}(y, x); }, pool);
  // LSH output arrives sorted by (a, b), which is key order already.
  if (!std::is_sorted(seed_keys.begin(), seed_keys.end())) {
    std::sort(seed_keys.begin(), seed_keys.end());
  }
  // Row r's seed keys (r the smaller row) are [key_start[r],
  // key_start[r + 1]), so a membership probe searches only those few.
  std::vector<std::size_t> key_start(static_cast<std::size_t>(n) + 1, 0);
  for (const std::uint64_t k : seed_keys) ++key_start[static_cast<std::size_t>(k >> 32) + 1];
  for (std::size_t r = 0; r < static_cast<std::size_t>(n); ++r) key_start[r + 1] += key_start[r];
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapLess> requeue;
  std::unordered_set<std::uint64_t> requeued_keys;
  std::size_t next_seed = 0;

  while ((next_seed < seeds.size() || !requeue.empty()) && nclusters > 0) {
    const bool from_seeds = requeue.empty() || (next_seed < seeds.size() &&
                                                HeapLess{}(requeue.top(), seeds[next_seed]));
    const HeapEntry top = from_seeds ? seeds[next_seed++] : requeue.top();
    if (!from_seeds) requeue.pop();
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
      if (i == j) continue;
      const std::uint64_t key = pair_key(i, j);
      const std::size_t lo = static_cast<std::size_t>(key >> 32);
      if (!requeued_keys.contains(key) &&
          !std::binary_search(seed_keys.begin() + static_cast<std::ptrdiff_t>(key_start[lo]),
                              seed_keys.begin() + static_cast<std::ptrdiff_t>(key_start[lo + 1]),
                              key)) {
        requeued_keys.insert(key);
        requeue.push(HeapEntry{sparse::jaccard(m.row_cols(i), m.row_cols(j)), i, j});
        ++result.requeued;
      }
    }
  }

  // Emit row ids cluster by cluster, clusters in order of the first row
  // that belongs to them (matches the paper's Fig 6 output).
  std::vector<index_t> slot_of_root(static_cast<std::size_t>(n), -1);
  std::vector<std::vector<index_t>> slots;
  for (index_t i = 0; i < n; ++i) {
    index_t& slot = slot_of_root[static_cast<std::size_t>(root(i))];
    if (slot < 0) {
      slot = static_cast<index_t>(slots.size());
      slots.emplace_back();
    }
    slots[static_cast<std::size_t>(slot)].push_back(i);
  }
  result.order.reserve(static_cast<std::size_t>(n));
  for (const auto& slot : slots) {
    result.order.insert(result.order.end(), slot.begin(), slot.end());
  }
  result.num_clusters = static_cast<index_t>(slots.size());
  return result;
}

}  // namespace rrspmm::cluster
