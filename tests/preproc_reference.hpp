// Reference implementations of the two serial-heavy preprocessing stages,
// kept as the straightforward loops the library once ran: Alg 3 over one
// binary max-heap seeded with every candidate, with a hash set answering
// "already a candidate?", and LSH banding as one global sort of
// (band, hash, row) entries followed by a sort+unique of the emitted
// pair keys. The differential suite (test_preproc_reference.cpp) holds
// the library's faster stages to these outputs exactly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cluster/hierarchy.hpp"
#include "lsh/candidates.hpp"
#include "sparse/stats.hpp"

namespace rrspmm::test::reference {

namespace detail {

struct HeapEntry {
  double similarity;
  index_t a;
  index_t b;
};

struct HeapLess {
  bool operator()(const HeapEntry& x, const HeapEntry& y) const {
    if (x.similarity != y.similarity) return x.similarity < y.similarity;
    if (x.a != y.a) return x.a > y.a;
    return x.b > y.b;
  }
};

inline std::uint64_t pack(index_t a, index_t b) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(b));
}

inline std::uint64_t pair_key(index_t a, index_t b) {
  if (a > b) std::swap(a, b);
  return pack(a, b);
}

inline std::uint64_t band_hash(const std::uint32_t* sig, int bsize, int band) {
  std::uint64_t h =
      1469598103934665603ULL ^ static_cast<std::uint64_t>(static_cast<unsigned>(band));
  for (int k = 0; k < bsize; ++k) {
    h ^= sig[k];
    h *= 1099511628211ULL;
  }
  return h;
}

struct BandEntry {
  std::uint64_t hash;
  index_t band;
  index_t row;
};

}  // namespace detail

/// Alg 3 exactly as cluster::cluster_reorder must compute it.
inline cluster::ClusterResult cluster_reorder(const sparse::CsrMatrix& m,
                                              const std::vector<lsh::CandidatePair>& pairs,
                                              const cluster::ClusterConfig& cfg) {
  using detail::HeapEntry;
  const index_t n = m.rows();
  cluster::ClusterResult result;

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

  std::vector<HeapEntry> seed_entries;
  seed_entries.reserve(pairs.size());
  std::unordered_set<std::uint64_t> candidate_keys;
  candidate_keys.reserve(pairs.size() * 2);
  for (const lsh::CandidatePair& p : pairs) {
    seed_entries.push_back(HeapEntry{p.similarity, p.a, p.b});
    candidate_keys.insert(detail::pair_key(p.a, p.b));
  }
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, detail::HeapLess> sim_queue(
      detail::HeapLess{}, std::move(seed_entries));

  while (!sim_queue.empty() && nclusters > 0) {
    const HeapEntry top = sim_queue.top();
    sim_queue.pop();
    index_t i = top.a;
    index_t j = top.b;

    if (i == cluster_id[static_cast<std::size_t>(i)] &&
        j == cluster_id[static_cast<std::size_t>(j)]) {
      if (deleted[static_cast<std::size_t>(i)] || deleted[static_cast<std::size_t>(j)]) continue;
      if (i == j) continue;
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
      if (i != j && !candidate_keys.contains(detail::pair_key(i, j))) {
        sim_queue.push(HeapEntry{sparse::jaccard(m.row_cols(i), m.row_cols(j)), i, j});
        candidate_keys.insert(detail::pair_key(i, j));
        ++result.requeued;
      }
    }
  }

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

/// LSH banding exactly as lsh::band_pairs must compute it: deduplicated
/// (a, b) pairs with a < b, ascending. Takes a valid config.
inline std::vector<std::pair<index_t, index_t>> band_pairs(const lsh::SignatureMatrix& sig,
                                                           const sparse::CsrMatrix& m,
                                                           const lsh::LshConfig& cfg) {
  using detail::BandEntry;
  const int nbands = cfg.siglen / cfg.bsize;
  std::vector<BandEntry> entries;
  for (index_t i = 0; i < sig.rows(); ++i) {
    if (m.row_nnz(i) == 0) continue;
    for (int band = 0; band < nbands; ++band) {
      entries.push_back(BandEntry{detail::band_hash(sig.row(i) + band * cfg.bsize, cfg.bsize, band),
                                  static_cast<index_t>(band), i});
    }
  }
  std::sort(entries.begin(), entries.end(), [](const BandEntry& x, const BandEntry& y) {
    if (x.band != y.band) return x.band < y.band;
    if (x.hash != y.hash) return x.hash < y.hash;
    return x.row < y.row;
  });

  std::vector<std::uint64_t> keys;
  for (std::size_t g = 0; g < entries.size();) {
    std::size_t e = g + 1;
    while (e < entries.size() && entries[e].band == entries[g].band &&
           entries[e].hash == entries[g].hash) {
      ++e;
    }
    const std::size_t sz = e - g;
    if (sz >= 2) {
      if (static_cast<int>(sz) <= cfg.bucket_cap) {
        for (std::size_t i = g; i < e; ++i) {
          for (std::size_t j = i + 1; j < e; ++j) {
            keys.push_back(detail::pack(entries[i].row, entries[j].row));
          }
        }
      } else {
        for (std::size_t i = g; i + 1 < e; ++i) {
          keys.push_back(detail::pack(entries[i].row, entries[i + 1].row));
        }
      }
    }
    g = e;
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  std::vector<std::pair<index_t, index_t>> pairs;
  pairs.reserve(keys.size());
  for (const std::uint64_t k : keys) {
    pairs.emplace_back(static_cast<index_t>(k >> 32), static_cast<index_t>(k & 0xFFFFFFFFULL));
  }
  return pairs;
}

}  // namespace rrspmm::test::reference
