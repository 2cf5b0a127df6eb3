// Differential suite: the library's Alg 3 merge and LSH banding against
// the reference loops in preproc_reference.hpp, field by field, at one
// and four threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/hierarchy.hpp"
#include "lsh/candidates.hpp"
#include "preproc_reference.hpp"
#include "runtime/worker_pool.hpp"
#include "synth/generators.hpp"
#include "synth/rng.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

using lsh::CandidatePair;

void expect_same_clusters(const sparse::CsrMatrix& m, const std::vector<CandidatePair>& pairs,
                          const std::string& what) {
  const index_t default_threshold = cluster::ClusterConfig{}.threshold_size;
  for (const index_t threshold : {index_t{2}, index_t{8}, default_threshold}) {
    cluster::ClusterConfig cfg;
    cfg.threshold_size = threshold;
    const cluster::ClusterResult want = test::reference::cluster_reorder(m, pairs, cfg);
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(what + " threshold " + std::to_string(threshold) + " threads " +
                   std::to_string(threads));
      runtime::WorkerPool pool(threads);
      const cluster::ClusterResult got =
          cluster::cluster_reorder(m, pairs, cfg, threads > 1 ? &pool : nullptr);
      EXPECT_EQ(got.order, want.order);
      EXPECT_EQ(got.num_clusters, want.num_clusters);
      EXPECT_EQ(got.merges, want.merges);
      EXPECT_EQ(got.requeued, want.requeued);
    }
  }
}

/// Distinct random pairs (a < b) sorted by (a, b), as LSH emits them,
/// with similarities drawn from a few values so that most comparisons
/// fall through to the (a, b) tie-break.
std::vector<CandidatePair> tied_pairs(index_t n, std::size_t count, std::uint64_t seed) {
  synth::Rng rng(seed);
  std::vector<std::uint64_t> keys;
  while (keys.size() < count) {
    auto a = static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(n)));
    auto b = static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    keys.push_back((static_cast<std::uint64_t>(a) << 32) | static_cast<std::uint64_t>(b));
    if (keys.size() == count) {
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    }
  }
  const double levels[] = {0.2, 0.4, 0.6};
  std::vector<CandidatePair> pairs;
  for (const std::uint64_t k : keys) {
    pairs.push_back(CandidatePair{static_cast<index_t>(k >> 32),
                                  static_cast<index_t>(k & 0xFFFFFFFFULL),
                                  levels[rng.next_below(3)]});
  }
  return pairs;
}

TEST(PreprocReference, ClusterMatchesOnTiedSimilarities) {
  // The larger list is past parallel_sort's sequential cutoff, so the
  // four-thread run sorts the seeds on the pool.
  for (const auto& [n, count] : {std::pair<index_t, std::size_t>{300, 3000}, {4000, 40000}}) {
    const sparse::CsrMatrix m = synth::erdos_renyi(n, n, n * 8, 7);
    std::vector<CandidatePair> pairs = tied_pairs(n, count, 11);
    expect_same_clusters(m, pairs, "sorted n=" + std::to_string(n));
    // A caller's list need not be in (a, b) order.
    synth::Rng rng(13);
    for (std::size_t k = pairs.size(); k > 1; --k) {
      std::swap(pairs[k - 1], pairs[rng.next_below(k)]);
    }
    expect_same_clusters(m, pairs, "shuffled n=" + std::to_string(n));
  }
}

TEST(PreprocReference, ClusterMatchesOnRequeueHeavyChains) {
  // Near-identical rows chained (i, i + 1) at one similarity: every pop
  // after the first finds an endpoint already merged and re-keys it.
  std::vector<std::vector<value_t>> rows;
  for (int i = 0; i < 600; ++i) {
    std::vector<value_t> r(40, 0);
    for (int c = 0; c < 20; ++c) r[static_cast<std::size_t>(c)] = 1;
    r[static_cast<std::size_t>(20 + i % 20)] = 1;
    rows.push_back(r);
  }
  const sparse::CsrMatrix chain_m = test::csr(rows);
  std::vector<CandidatePair> chain;
  for (index_t i = 0; i + 1 < chain_m.rows(); ++i) chain.push_back({i, i + 1, 0.5});
  EXPECT_GT(test::reference::cluster_reorder(chain_m, chain, {}).requeued, 500);
  expect_same_clusters(chain_m, chain, "chain");

  // The LSH candidates of a scattered clustered matrix: the requeue
  // pattern of the paper's target family.
  synth::ClusteredParams cp;
  cp.rows = 3000;
  cp.cols = 3000;
  cp.num_groups = 40;
  cp.group_cols = 48;
  cp.row_nnz = 16;
  cp.noise_nnz = 2;
  const sparse::CsrMatrix m = synth::clustered_rows(cp, 17);
  const std::vector<CandidatePair> pairs = lsh::find_candidate_pairs(m, lsh::LshConfig{});
  EXPECT_GT(test::reference::cluster_reorder(m, pairs, {}).requeued, 100);
  expect_same_clusters(m, pairs, "clustered");
}

TEST(PreprocReference, ClusterHandlesNoPairsAndEmptyMatrix) {
  expect_same_clusters(synth::diagonal(5), {}, "no pairs");
  expect_same_clusters(sparse::CsrMatrix{}, {}, "empty");
}

/// Signatures drawn from `alphabet` values per slot: a small alphabet
/// makes buckets far larger than bucket_cap. Every seventh row of the
/// matrix is empty, so banding must skip it.
void expect_same_band_pairs(index_t n, int siglen, int bsize, std::uint32_t alphabet,
                            int bucket_cap, std::uint64_t seed) {
  synth::Rng rng(seed);
  lsh::SignatureMatrix sig(n, siglen);
  for (index_t i = 0; i < n; ++i) {
    for (int k = 0; k < siglen; ++k) {
      sig.row(i)[k] = static_cast<std::uint32_t>(rng.next_below(alphabet));
    }
  }
  std::vector<offset_t> rowptr{0};
  std::vector<index_t> colidx;
  for (index_t i = 0; i < n; ++i) {
    if (i % 7 != 3) colidx.push_back(i);
    rowptr.push_back(static_cast<offset_t>(colidx.size()));
  }
  const sparse::CsrMatrix m(n, n, rowptr, colidx,
                            std::vector<value_t>(colidx.size(), value_t{1}));
  lsh::LshConfig cfg;
  cfg.siglen = siglen;
  cfg.bsize = bsize;
  cfg.bucket_cap = bucket_cap;
  const auto want = test::reference::band_pairs(sig, m, cfg);
  EXPECT_FALSE(want.empty());
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("n " + std::to_string(n) + " siglen " + std::to_string(siglen) + " bsize " +
                 std::to_string(bsize) + " alphabet " + std::to_string(alphabet) + " cap " +
                 std::to_string(bucket_cap) + " threads " + std::to_string(threads));
    runtime::WorkerPool pool(threads);
    EXPECT_EQ(lsh::band_pairs(sig, m, cfg, threads > 1 ? &pool : nullptr), want);
  }
}

TEST(PreprocReference, BandPairsMatchOnRandomSignatures) {
  expect_same_band_pairs(600, 8, 2, 3, 4, 21);      // every bucket past the cap
  expect_same_band_pairs(600, 12, 3, 4, 64, 22);    // some buckets past the cap
  expect_same_band_pairs(3000, 16, 2, 16, 8, 23);   // many small buckets
  expect_same_band_pairs(100, 128, 2, 40, 64, 24);  // below the fan-out cutoff
}

TEST(PreprocReference, BandPairsMatchOnMinHashSignatures) {
  synth::ClusteredParams cp;
  cp.rows = 3000;
  cp.cols = 3000;
  cp.num_groups = 40;
  cp.group_cols = 48;
  cp.row_nnz = 16;
  cp.noise_nnz = 2;
  const sparse::CsrMatrix m = synth::clustered_rows(cp, 31);
  const lsh::LshConfig cfg;
  const lsh::SignatureMatrix sig = lsh::compute_signatures(m, cfg.siglen, cfg.seed);
  const auto want = test::reference::band_pairs(sig, m, cfg);
  runtime::WorkerPool pool(4);
  EXPECT_EQ(lsh::band_pairs(sig, m, cfg), want);
  EXPECT_EQ(lsh::band_pairs(sig, m, cfg, &pool), want);
}

}  // namespace
}  // namespace rrspmm
