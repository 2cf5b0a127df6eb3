#include "lsh/minhash.hpp"

#include <algorithm>

#include "fault/fault.hpp"
#include "runtime/worker_pool.hpp"

namespace rrspmm::lsh {

namespace {

// xxhash-style 64-bit avalanche; full 64-bit mixing then truncation gives
// well-distributed 32-bit hashes for any column-index range.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

// Per-row signature bodies, shared verbatim by the sequential loop and
// the pool-sharded loop: each row's signature depends only on that row's
// columns, so any partition of the row range produces the identical
// SignatureMatrix bit for bit.
void classic_signature_row(const CsrMatrix& m, index_t i, int siglen, std::uint64_t seed,
                           std::uint32_t* s) {
  for (index_t c : m.row_cols(i)) {
    for (int k = 0; k < siglen; ++k) {
      s[k] = std::min(s[k], minhash_hash(c, k, seed));
    }
  }
}

void oph_signature_row(const CsrMatrix& m, index_t i, std::uint32_t bins, std::uint64_t seed,
                       std::uint32_t* s) {
  if (m.row_nnz(i) == 0) return;  // keep the sentinel for empty rows
  // One hash per column; the top bits pick the bucket, the full hash is
  // the candidate minimum.
  for (index_t c : m.row_cols(i)) {
    const std::uint64_t h =
        mix64((static_cast<std::uint64_t>(static_cast<std::uint32_t>(c)) << 1) ^ seed);
    const auto bucket = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(h >> 32)) * bins) >> 32);
    const auto v = static_cast<std::uint32_t>(h);
    s[bucket] = std::min(s[bucket], v);
  }
  // Optimal densification: every empty bucket copies the value of a
  // pseudo-randomly chosen bucket, probing with per-(bucket, attempt)
  // hashes until an occupied one is found. The probe sequence depends
  // only on (bucket, attempt, seed), never on the row, so two rows with
  // identical occupied buckets densify identically — preserving the
  // collision <=> similarity property.
  for (std::uint32_t b = 0; b < bins; ++b) {
    if (s[b] != UINT32_MAX) continue;
    std::uint64_t attempt = 0;
    std::uint32_t probe = b;
    while (s[probe] == UINT32_MAX) {
      ++attempt;
      probe = static_cast<std::uint32_t>(
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(mix64(
               (static_cast<std::uint64_t>(b) << 24) ^ attempt ^ (seed * 0x9E3779B97F4A7C15ULL)))) *
           bins) >>
          32);
      if (attempt > 64 && s[probe] == UINT32_MAX) {
        // Degenerate row (extremely few occupied buckets): fall back to
        // a linear scan for the next occupied bucket.
        for (std::uint32_t d = 1; d < bins; ++d) {
          const std::uint32_t cand = (b + d) % bins;
          if (s[cand] != UINT32_MAX) {
            probe = cand;
            break;
          }
        }
      }
    }
    s[b] = s[probe];
  }
}

// Shards the row range over the pool in fixed chunks. Each chunk writes a
// disjoint slice of the signature matrix, so there are no write conflicts
// and the result matches the sequential loop exactly. The fault probe
// covers each chunk; a throw unwinds through parallel_for to the caller.
template <typename RowFn>
void for_each_row(const CsrMatrix& m, runtime::WorkerPool* pool, RowFn row_fn) {
  const index_t rows = m.rows();
  if (pool == nullptr || pool->size() <= 1 || rows < 2) {
    for (index_t i = 0; i < rows; ++i) row_fn(i);
    return;
  }
  const auto chunk = std::max<std::size_t>(
      64, static_cast<std::size_t>(rows) / (static_cast<std::size_t>(pool->size()) * 4));
  const std::size_t nchunks = (static_cast<std::size_t>(rows) + chunk - 1) / chunk;
  pool->parallel_for(nchunks, [&](std::size_t c) {
    fault::hit(fault::points::kPreprocSignature);
    const auto lo = static_cast<index_t>(c * chunk);
    const auto hi = static_cast<index_t>(std::min<std::size_t>((c + 1) * chunk,
                                                               static_cast<std::size_t>(rows)));
    for (index_t i = lo; i < hi; ++i) row_fn(i);
  });
}

}  // namespace

std::uint32_t minhash_hash(index_t column, int k, std::uint64_t seed) {
  const std::uint64_t key = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(column)) << 20) ^
                            static_cast<std::uint64_t>(static_cast<unsigned>(k)) ^ (seed << 1);
  return static_cast<std::uint32_t>(mix64(key));
}

double SignatureMatrix::estimate_similarity(index_t a, index_t b) const {
  const std::uint32_t* sa = row(a);
  const std::uint32_t* sb = row(b);
  int eq = 0;
  for (int k = 0; k < siglen_; ++k) eq += (sa[k] == sb[k]);
  return siglen_ > 0 ? static_cast<double>(eq) / siglen_ : 0.0;
}

SignatureMatrix compute_signatures_oph(const CsrMatrix& m, int siglen, std::uint64_t seed,
                                       runtime::WorkerPool* pool) {
  if (siglen <= 0) throw sparse::invalid_matrix("siglen must be positive");
  SignatureMatrix sig(m.rows(), siglen);
  const auto bins = static_cast<std::uint32_t>(siglen);
  for_each_row(m, pool, [&](index_t i) { oph_signature_row(m, i, bins, seed, sig.row(i)); });
  return sig;
}

SignatureMatrix compute_signatures(const CsrMatrix& m, int siglen, std::uint64_t seed,
                                   runtime::WorkerPool* pool) {
  if (siglen <= 0) throw sparse::invalid_matrix("siglen must be positive");
  SignatureMatrix sig(m.rows(), siglen);
  for_each_row(m, pool, [&](index_t i) { classic_signature_row(m, i, siglen, seed, sig.row(i)); });
  return sig;
}

}  // namespace rrspmm::lsh
