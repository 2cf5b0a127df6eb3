#include "lsh/candidates.hpp"

#include <algorithm>
#include <chrono>

#include "fault/fault.hpp"
#include "runtime/parallel_sort.hpp"
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

// One entry per (live row, band); sorting by (band, hash, row) makes each
// bucket an adjacent run with members in ascending row order — the same
// member order the per-band hash-map insertion produced.
struct BandEntry {
  std::uint64_t hash;
  index_t band;
  index_t row;
};

struct BandEntryLess {
  bool operator()(const BandEntry& x, const BandEntry& y) const {
    if (x.band != y.band) return x.band < y.band;
    if (x.hash != y.hash) return x.hash < y.hash;
    return x.row < y.row;
  }
};

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
  const int nbands = cfg.siglen / cfg.bsize;

  std::vector<index_t> live;
  live.reserve(static_cast<std::size_t>(sig.rows()));
  for (index_t i = 0; i < sig.rows(); ++i) {
    if (m.row_nnz(i) > 0) live.push_back(i);
  }

  std::vector<BandEntry> entries(live.size() * static_cast<std::size_t>(nbands));
  const auto fill_rows = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t j = lo; j < hi; ++j) {
      const index_t i = live[j];
      const std::uint32_t* s = sig.row(i);
      BandEntry* e = entries.data() + j * static_cast<std::size_t>(nbands);
      for (int band = 0; band < nbands; ++band) {
        e[band] = BandEntry{band_hash(s + band * cfg.bsize, cfg.bsize, band),
                            static_cast<index_t>(band), i};
      }
    }
  };
  if (pool != nullptr && pool->size() > 1 && live.size() >= 128) {
    const std::size_t chunk = std::max<std::size_t>(64, live.size() / (pool->size() * 4));
    const std::size_t nchunks = (live.size() + chunk - 1) / chunk;
    pool->parallel_for(nchunks, [&](std::size_t c) {
      fill_rows(c * chunk, std::min((c + 1) * chunk, live.size()));
    });
  } else {
    fill_rows(0, live.size());
  }

  runtime::parallel_sort(entries, BandEntryLess{}, pool);

  // Group scan, two passes. Pass one sizes the emit exactly from the
  // bucket statistics (a bucket of s members yields s*(s-1)/2 pairs, or
  // s-1 when chained past the cap) so pass two never reallocates.
  const auto group_end = [&](std::size_t g) {
    std::size_t e = g + 1;
    while (e < entries.size() && entries[e].band == entries[g].band &&
           entries[e].hash == entries[g].hash) {
      ++e;
    }
    return e;
  };
  std::size_t npairs = 0;
  for (std::size_t g = 0; g < entries.size();) {
    const std::size_t e = group_end(g);
    const std::size_t sz = e - g;
    if (sz >= 2) {
      npairs += static_cast<int>(sz) <= cfg.bucket_cap ? sz * (sz - 1) / 2 : sz - 1;
    }
    g = e;
  }

  std::vector<std::uint64_t> keys;
  keys.reserve(npairs);
  for (std::size_t g = 0; g < entries.size();) {
    const std::size_t e = group_end(g);
    const std::size_t sz = e - g;
    if (sz >= 2) {
      // Members are in ascending row order, so a < b without a swap.
      if (static_cast<int>(sz) <= cfg.bucket_cap) {
        for (std::size_t i = g; i < e; ++i) {
          for (std::size_t j = i + 1; j < e; ++j) {
            keys.push_back(pair_key(entries[i].row, entries[j].row));
          }
        }
      } else {
        // Oversized bucket: chain members so clustering can still connect
        // them, without the quadratic pair blow-up.
        for (std::size_t i = g; i + 1 < e; ++i) {
          keys.push_back(pair_key(entries[i].row, entries[i + 1].row));
        }
      }
    }
    g = e;
  }

  runtime::parallel_sort(keys, std::less<std::uint64_t>{}, pool);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
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
