// Deterministic parallel merge sort on a WorkerPool.
//
// The vector is cut into one block per worker, the blocks are std::sort-ed
// concurrently, then adjacent sorted runs are std::inplace_merge-d level
// by level, each level's merges running in parallel. The merge tree is a
// pure function of (size, block count), never of scheduling, and when the
// comparator is a strict TOTAL order the sorted sequence is unique — so
// the output is bitwise identical to std::sort for any thread count.
// That property is what lets the Alg 3 seed sort (cluster_reorder)
// parallelise without breaking the preprocessing pipeline's
// bitwise-determinism contract.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "runtime/worker_pool.hpp"

namespace rrspmm::runtime {

template <typename T, typename Less>
void parallel_sort(std::vector<T>& v, Less less, WorkerPool* pool) {
  // Below this size the fork/merge overhead dominates; one std::sort and
  // done. Also the sequential path when no pool is supplied.
  constexpr std::size_t kMinBlock = 1 << 13;
  const std::size_t n = v.size();
  if (pool == nullptr || pool->size() <= 1 || n < 2 * kMinBlock) {
    std::sort(v.begin(), v.end(), less);
    return;
  }

  const std::size_t nblocks =
      std::min<std::size_t>(pool->size(), (n + kMinBlock - 1) / kMinBlock);
  const std::size_t block = (n + nblocks - 1) / nblocks;
  std::vector<std::size_t> runs(nblocks + 1);
  for (std::size_t b = 0; b <= nblocks; ++b) runs[b] = std::min(n, b * block);

  pool->parallel_for(nblocks, [&](std::size_t b) {
    std::sort(v.begin() + static_cast<std::ptrdiff_t>(runs[b]),
              v.begin() + static_cast<std::ptrdiff_t>(runs[b + 1]), less);
  });

  // Merge adjacent runs, halving the run count per level; an odd trailing
  // run is carried to the next level unmerged.
  while (runs.size() > 2) {
    const std::size_t pairs = (runs.size() - 1) / 2;
    pool->parallel_for(pairs, [&](std::size_t p) {
      std::inplace_merge(v.begin() + static_cast<std::ptrdiff_t>(runs[2 * p]),
                         v.begin() + static_cast<std::ptrdiff_t>(runs[2 * p + 1]),
                         v.begin() + static_cast<std::ptrdiff_t>(runs[2 * p + 2]), less);
    });
    std::vector<std::size_t> next;
    next.reserve(pairs + 2);
    for (std::size_t i = 0; i < runs.size(); i += 2) next.push_back(runs[i]);
    if (runs.size() % 2 == 0) next.push_back(runs.back());
    runs = std::move(next);
  }
}

}  // namespace rrspmm::runtime
