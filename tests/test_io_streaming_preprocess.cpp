// Streaming preprocessing tests: the chunk-fed LSH + Alg 3 pipeline
// over a .rrsb shard must reproduce core::reorder_rows on the resident
// matrix bit for bit — at every block size, thread count, signature
// scheme, and under injected faults (degrade-to-sequential).
#include <gtest/gtest.h>

#include <string>

#include "core/reorder_engine.hpp"
#include "fault/fault.hpp"
#include "io/rrsb.hpp"
#include "io/streaming_preprocess.hpp"
#include "runtime/worker_pool.hpp"
#include "synth/corpus.hpp"
#include "synth/generators.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

using sparse::CsrMatrix;

CsrMatrix clustered() {
  // 48 rows per group: enough same-group band collisions that the
  // pooled scoring phase engages (it needs >= 1024 candidate keys),
  // so the injected-fault test really exercises the degrade path.
  synth::ClusteredParams p;
  p.rows = 768;
  p.cols = 768;
  p.num_groups = 16;
  p.group_cols = 40;
  p.row_nnz = 12;
  p.noise_nnz = 1;
  p.scatter = true;
  return synth::clustered_rows(p, 31);
}

void expect_same(const core::ReorderResult& a, const core::ReorderResult& b) {
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.candidate_pairs, b.candidate_pairs);
  EXPECT_EQ(a.clusters, b.clusters);
  EXPECT_EQ(a.merges, b.merges);
}

TEST(IoStreaming, MatchesResidentReorderAtEveryBlockSize) {
  const test::TempFile file("iostream.rrsb");
  const CsrMatrix m = clustered();
  core::ReorderConfig cfg;
  cfg.threads = 1;
  const core::ReorderResult resident = core::reorder_rows(m, cfg);
  EXPECT_FALSE(resident.order.empty());
  for (const index_t block_rows : {index_t{1}, index_t{7}, index_t{64}, index_t{4096}}) {
    io::write_rrsb(m, file.path, block_rows);
    const io::RrsbReader shard(file.path);
    const core::ReorderResult streamed = io::streaming_reorder_rows(shard, cfg);
    expect_same(streamed, resident);
    EXPECT_FALSE(streamed.degraded_to_sequential);
  }
}

TEST(IoStreaming, MatchesResidentWithOphSignatures) {
  const test::TempFile file("iostream.rrsb");
  const CsrMatrix m = clustered();
  core::ReorderConfig cfg;
  cfg.threads = 1;
  cfg.lsh.scheme = lsh::MinHashScheme::kOnePermutation;
  const core::ReorderResult resident = core::reorder_rows(m, cfg);
  io::write_rrsb(m, file.path, 48);
  const io::RrsbReader shard(file.path);
  expect_same(io::streaming_reorder_rows(shard, cfg), resident);
}

TEST(IoStreaming, IdenticalAtEveryThreadCount) {
  const test::TempFile file("iostream.rrsb");
  const CsrMatrix m = clustered();
  io::write_rrsb(m, file.path, 64);
  const io::RrsbReader shard(file.path);
  core::ReorderConfig cfg;
  const core::ReorderResult seq = io::streaming_reorder_rows(shard, cfg, nullptr);
  for (const unsigned threads : {2u, 4u}) {
    runtime::WorkerPool pool(threads);
    const core::ReorderResult par = io::streaming_reorder_rows(shard, cfg, &pool);
    expect_same(par, seq);
    EXPECT_FALSE(par.degraded_to_sequential);
  }
}

TEST(IoStreaming, ScatteredMatrixYieldsIdentityLikeResident) {
  const test::TempFile file("iostream.rrsb");
  // The "too scattered" regime (paper Fig 7b): no candidate pairs, so
  // both paths return the identity order.
  const CsrMatrix m = synth::erdos_renyi(256, 256, 1024, 5);
  io::write_rrsb(m, file.path, 64);
  const io::RrsbReader shard(file.path);
  core::ReorderConfig cfg;
  cfg.threads = 1;
  expect_same(io::streaming_reorder_rows(shard, cfg), core::reorder_rows(m, cfg));
}

TEST(IoStreaming, InjectedFaultDegradesToSequentialBitwiseIdentical) {
  const test::TempFile file("iostream.rrsb");
  const CsrMatrix m = clustered();
  io::write_rrsb(m, file.path, 64);
  const io::RrsbReader shard(file.path);
  core::ReorderConfig cfg;
  cfg.threads = 1;
  const core::ReorderResult clean = io::streaming_reorder_rows(shard, cfg);

  for (const char* point : {fault::points::kPreprocSignature, fault::points::kPreprocScore}) {
    fault::FaultPlan plan;
    plan.seed = 17;
    fault::FaultRule rule;
    rule.point = point;
    rule.kind = fault::FaultKind::throw_error;
    rule.probability = 1.0;
    rule.max_triggers = 1;
    plan.rules.push_back(rule);
    fault::ScopedFaultPlan armed(std::move(plan));

    runtime::WorkerPool pool(4);
    const core::ReorderResult r = io::streaming_reorder_rows(shard, cfg, &pool);
    EXPECT_TRUE(r.degraded_to_sequential) << point;
    expect_same(r, clean);
  }
}

TEST(IoStreaming, TestCorpusSweepMatchesResident) {
  const test::TempFile file("iostream.rrsb");
  // Every structural family, including the degenerate ones (diagonal,
  // scattered): the streamed pipeline is the resident pipeline.
  core::ReorderConfig cfg;
  cfg.threads = 1;
  for (const auto& e : synth::build_test_corpus()) {
    io::write_rrsb(e.matrix, file.path, 96);
    const io::RrsbReader shard(file.path);
    const core::ReorderResult resident = core::reorder_rows(e.matrix, cfg);
    const core::ReorderResult streamed = io::streaming_reorder_rows(shard, cfg);
    EXPECT_EQ(streamed.order, resident.order) << e.name;
    EXPECT_EQ(streamed.candidate_pairs, resident.candidate_pairs) << e.name;
  }
}

}  // namespace
}  // namespace rrspmm
