#include "lsh/candidates.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <utility>

#include "fault/fault.hpp"
#include "runtime/worker_pool.hpp"
#include "sparse/stats.hpp"

namespace rrspmm::lsh {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::uint64_t pair_key(index_t a, index_t b) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(b));
}

// FNV-1a over the band's signature entries; bucket keys only need to be
// collision-resistant enough that unrelated bands rarely merge.
std::uint64_t band_hash(const std::uint32_t* sig, int bsize, int band) {
  std::uint64_t h = 1469598103934665603ULL ^ static_cast<std::uint64_t>(static_cast<unsigned>(band));
  for (int k = 0; k < bsize; ++k) {
    h ^= sig[k];
    h *= 1099511628211ULL;
  }
  return h;
}

// One entry per live row in one band's bucket array. Rows are laid out
// band-major, so each band's entries are a contiguous array that sorts on
// its own; sorting it by (hash, row) makes each bucket an adjacent run
// with members in ascending row order.
struct BucketEntry {
  std::uint64_t hash;
  index_t row;
};

struct BucketEntryLess {
  bool operator()(const BucketEntry& x, const BucketEntry& y) const {
    if (x.hash != y.hash) return x.hash < y.hash;
    return x.row < y.row;
  }
};

/// Sorts one band's entries, which arrive in ascending row order, by
/// (hash, row): a stable counting pass on the hash's top bits cuts the
/// band into ranges of a few entries each, then each range is sorted.
void sort_band(BucketEntry* b, std::size_t n) {
  const int bits = std::clamp(static_cast<int>(std::bit_width(n)) - 2, 1, 16);
  const int shift = 64 - bits;
  std::vector<std::uint32_t> start((std::size_t{1} << bits) + 1, 0);
  for (std::size_t k = 0; k < n; ++k) ++start[(b[k].hash >> shift) + 1];
  for (std::size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
  std::vector<BucketEntry> tmp(n);
  std::vector<std::uint32_t> next(start.begin(), start.end() - 1);
  for (std::size_t k = 0; k < n; ++k) tmp[next[b[k].hash >> shift]++] = b[k];
  for (std::size_t d = 0; d + 1 < start.size(); ++d) {
    if (start[d + 1] - start[d] > 1) {
      std::sort(tmp.begin() + start[d], tmp.begin() + start[d + 1], BucketEntryLess{});
    }
  }
  std::copy(tmp.begin(), tmp.end(), b);
}

/// Runs f(begin, end) over the equal-hash runs of one sorted band.
template <class F>
void for_each_bucket(const BucketEntry* begin, const BucketEntry* end, F&& f) {
  for (const BucketEntry* g = begin; g != end;) {
    const BucketEntry* e = g + 1;
    while (e != end && e->hash == g->hash) ++e;
    f(g, e);
    g = e;
  }
}

/// Runs f(x, first, last) for each member x of the bucket [g, e) that
/// is the smaller row of at least one candidate pair: x pairs with every
/// later member, or only with the next one when the bucket is chained
/// past the cap.
template <class F>
void for_each_pair_run(const BucketEntry* g, const BucketEntry* e, int bucket_cap, F&& f) {
  if (e - g < 2) return;
  const bool chained = e - g > bucket_cap;
  for (const BucketEntry* x = g; x + 1 != e; ++x) f(x, x + 1, chained ? x + 2 : e);
}

// Pair keys are partitioned by their smaller row into parts of
// 2^kPartShift rows, so that sorting and deduplicating the keys is one
// small in-cache sort per part, and the concatenated parts are in key order.
constexpr int kPartShift = 6;

/// Deduplicated candidate pairs as packed (a << 32) | b keys with a < b,
/// sorted ascending. Empty rows are skipped (they have no similarity to
/// exploit); nothing else of the matrix is read. Packed keys instead of
/// std::pair keep the hot emit/dedup/score loops on flat 8-byte values.
std::vector<std::uint64_t> band_pair_keys(const SignatureMatrix& sig, const CsrMatrix& m,
                                          const LshConfig& cfg, runtime::WorkerPool* pool) {
  if (cfg.bsize <= 0 || cfg.siglen <= 0 || cfg.siglen % cfg.bsize != 0) {
    throw sparse::invalid_matrix("LshConfig: siglen must be a positive multiple of bsize");
  }
  if (m.rows() != sig.rows()) {
    throw sparse::invalid_matrix("signature rows must match matrix rows");
  }
  const auto nbands = static_cast<std::size_t>(cfg.siglen / cfg.bsize);

  std::vector<index_t> live;
  live.reserve(static_cast<std::size_t>(sig.rows()));
  for (index_t i = 0; i < sig.rows(); ++i) {
    if (m.row_nnz(i) > 0) live.push_back(i);
  }
  const std::size_t nlive = live.size();
  const bool fan_out = pool != nullptr && pool->size() > 1 && nlive >= 128;
  const auto for_each_index = [&](std::size_t n, auto&& body) {
    if (fan_out) {
      pool->parallel_for(n, body);
    } else {
      for (std::size_t k = 0; k < n; ++k) body(k);
    }
  };

  // Bucket pass: band b's entries fill [b * nlive, (b + 1) * nlive) in
  // ascending row order.
  std::vector<BucketEntry> entries(nlive * nbands);
  const auto fill_rows = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t j = lo; j < hi; ++j) {
      const index_t i = live[j];
      const std::uint32_t* s = sig.row(i);
      for (std::size_t band = 0; band < nbands; ++band) {
        entries[band * nlive + j] =
            BucketEntry{band_hash(s + band * static_cast<std::size_t>(cfg.bsize), cfg.bsize,
                                  static_cast<int>(band)),
                        i};
      }
    }
  };
  if (fan_out) {
    const std::size_t chunk = std::max<std::size_t>(64, nlive / (pool->size() * 4));
    const std::size_t nchunks = (nlive + chunk - 1) / chunk;
    pool->parallel_for(nchunks, [&](std::size_t c) {
      fill_rows(c * chunk, std::min((c + 1) * chunk, nlive));
    });
  } else {
    fill_rows(0, nlive);
  }

  // Per band: sort into buckets, then count the band's pairs per part.
  // The counts become each (part, band) slice's write cursor, slices laid
  // out part-major, so every band emits into its own disjoint slices.
  const std::size_t nparts = (static_cast<std::size_t>(m.rows()) >> kPartShift) + 1;
  std::vector<std::size_t> cursor(nbands * nparts, 0);
  for_each_index(nbands, [&](std::size_t band) {
    BucketEntry* b = entries.data() + band * nlive;
    sort_band(b, nlive);
    std::size_t* count = cursor.data() + band * nparts;
    for_each_bucket(b, b + nlive, [&](const BucketEntry* g, const BucketEntry* e) {
      for_each_pair_run(g, e, cfg.bucket_cap, [&](const BucketEntry* x, const BucketEntry* first,
                                                  const BucketEntry* last) {
        count[static_cast<std::size_t>(x->row) >> kPartShift] +=
            static_cast<std::size_t>(last - first);
      });
    });
  });
  std::vector<std::size_t> part_start(nparts + 1, 0);
  std::size_t total = 0;
  for (std::size_t part = 0; part < nparts; ++part) {
    part_start[part] = total;
    for (std::size_t band = 0; band < nbands; ++band) {
      total += std::exchange(cursor[band * nparts + part], total);
    }
  }
  part_start[nparts] = total;

  std::vector<std::uint64_t> keys(total);
  for_each_index(nbands, [&](std::size_t band) {
    const BucketEntry* b = entries.data() + band * nlive;
    std::size_t* next = cursor.data() + band * nparts;
    for_each_bucket(b, b + nlive, [&](const BucketEntry* g, const BucketEntry* e) {
      // Members are in ascending row order, so a < b without a swap.
      for_each_pair_run(g, e, cfg.bucket_cap, [&](const BucketEntry* x, const BucketEntry* first,
                                                  const BucketEntry* last) {
        std::size_t& at = next[static_cast<std::size_t>(x->row) >> kPartShift];
        for (const BucketEntry* y = first; y != last; ++y) keys[at++] = pair_key(x->row, y->row);
      });
    });
  });

  // Per part: sort and deduplicate in place, then close the gaps.
  std::vector<std::size_t> part_unique(nparts);
  for_each_index(nparts, [&](std::size_t part) {
    const auto lo = keys.begin() + static_cast<std::ptrdiff_t>(part_start[part]);
    const auto hi = keys.begin() + static_cast<std::ptrdiff_t>(part_start[part + 1]);
    std::sort(lo, hi);
    part_unique[part] = static_cast<std::size_t>(std::unique(lo, hi) - lo);
  });
  std::size_t nkeys = 0;
  for (std::size_t part = 0; part < nparts; ++part) {
    const auto lo = keys.begin() + static_cast<std::ptrdiff_t>(part_start[part]);
    std::copy(lo, lo + static_cast<std::ptrdiff_t>(part_unique[part]),
              keys.begin() + static_cast<std::ptrdiff_t>(nkeys));
    nkeys += part_unique[part];
  }
  keys.resize(nkeys);
  return keys;
}

}  // namespace

std::vector<std::pair<index_t, index_t>> band_pairs(const SignatureMatrix& sig,
                                                    const CsrMatrix& m, const LshConfig& cfg,
                                                    runtime::WorkerPool* pool) {
  const std::vector<std::uint64_t> keys = band_pair_keys(sig, m, cfg, pool);
  std::vector<std::pair<index_t, index_t>> pairs;
  pairs.reserve(keys.size());
  for (const std::uint64_t k : keys) {
    pairs.emplace_back(static_cast<index_t>(k >> 32),
                       static_cast<index_t>(k & 0xFFFFFFFFULL));
  }
  return pairs;
}

std::vector<CandidatePair> find_candidate_pairs(const CsrMatrix& m, const LshConfig& cfg,
                                                runtime::WorkerPool* pool,
                                                PhaseTimings* timings) {
  auto t0 = Clock::now();
  const SignatureMatrix sig = cfg.scheme == MinHashScheme::kOnePermutation
                                  ? compute_signatures_oph(m, cfg.siglen, cfg.seed, pool)
                                  : compute_signatures(m, cfg.siglen, cfg.seed, pool);
  if (timings) timings->sig_ms = ms_since(t0);

  t0 = Clock::now();
  const std::vector<std::uint64_t> keys = band_pair_keys(sig, m, cfg, pool);
  if (timings) timings->band_ms = ms_since(t0);

  // Exact verification is independent per pair — the second
  // embarrassingly parallel loop of the preprocessing. Fixed-size chunks
  // write disjoint slices of a preallocated output, so the parallel fill
  // is bitwise identical to the sequential one.
  t0 = Clock::now();
  std::vector<CandidatePair> out(keys.size());
  const auto score_range = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t idx = lo; idx < hi; ++idx) {
      const auto a = static_cast<index_t>(keys[idx] >> 32);
      const auto b = static_cast<index_t>(keys[idx] & 0xFFFFFFFFULL);
      out[idx] = CandidatePair{a, b, sparse::jaccard(m.row_cols(a), m.row_cols(b))};
    }
  };
  if (pool != nullptr && pool->size() > 1 && keys.size() >= 1024) {
    constexpr std::size_t kChunk = 512;
    const std::size_t nchunks = (keys.size() + kChunk - 1) / kChunk;
    pool->parallel_for(nchunks, [&](std::size_t c) {
      fault::hit(fault::points::kPreprocScore);
      score_range(c * kChunk, std::min((c + 1) * kChunk, keys.size()));
    });
  } else {
    score_range(0, keys.size());
  }
  std::erase_if(out, [&](const CandidatePair& p) { return p.similarity < cfg.min_similarity; });
  if (timings) timings->score_ms = ms_since(t0);
  return out;
}

}  // namespace rrspmm::lsh
