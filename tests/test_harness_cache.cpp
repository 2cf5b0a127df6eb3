#include <gtest/gtest.h>

#include <fstream>

#include "harness/cache.hpp"
#include "synth/corpus.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

using harness::ExperimentConfig;
using harness::MatrixRecord;

ExperimentConfig tiny_cfg() {
  ExperimentConfig cfg;
  cfg.ks = {16};
  cfg.verbose = false;
  return cfg;
}

std::vector<MatrixRecord> tiny_records() {
  return harness::run_experiment(synth::build_test_corpus(), tiny_cfg());
}

TEST(Cache, SaveLoadRoundTripsEveryField) {
  const test::TempFile file("cache_test.txt");
  const auto records = tiny_records();
  const std::string fp = "test-fingerprint";
  harness::save_records(file.path, fp, records);
  const auto loaded = harness::load_records(file.path, fp);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const MatrixRecord& a = records[i];
    const MatrixRecord& b = (*loaded)[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.family, b.family);
    EXPECT_EQ(a.mstats.rows, b.mstats.rows);
    EXPECT_EQ(a.mstats.nnz, b.mstats.nnz);
    EXPECT_DOUBLE_EQ(a.mstats.avg_consecutive_jaccard, b.mstats.avg_consecutive_jaccard);
    EXPECT_EQ(a.rr.round1_applied, b.rr.round1_applied);
    EXPECT_EQ(a.rr.round2_applied, b.rr.round2_applied);
    EXPECT_DOUBLE_EQ(a.rr.dense_ratio_after, b.rr.dense_ratio_after);
    EXPECT_DOUBLE_EQ(a.rr.preprocess_seconds, b.rr.preprocess_seconds);
    ASSERT_EQ(a.spmm.size(), b.spmm.size());
    for (std::size_t j = 0; j < a.spmm.size(); ++j) {
      EXPECT_EQ(a.spmm[j].k, b.spmm[j].k);
      EXPECT_DOUBLE_EQ(a.spmm[j].rowwise.time_s, b.spmm[j].rowwise.time_s);
      EXPECT_DOUBLE_EQ(a.spmm[j].aspt_rr.dram_bytes, b.spmm[j].aspt_rr.dram_bytes);
      EXPECT_EQ(a.spmm[j].aspt_nr.x_l2_hits, b.spmm[j].aspt_nr.x_l2_hits);
      EXPECT_EQ(a.spmm[j].aspt_rr.kernels_launched, b.spmm[j].aspt_rr.kernels_launched);
    }
    ASSERT_EQ(a.sddmm.size(), b.sddmm.size());
  }
}

TEST(Cache, FingerprintMismatchInvalidates) {
  const test::TempFile file("cache_test.txt");
  harness::save_records(file.path, "fp-a", tiny_records());
  EXPECT_FALSE(harness::load_records(file.path, "fp-b").has_value());
  EXPECT_TRUE(harness::load_records(file.path, "fp-a").has_value());
}

TEST(Cache, MissingFileReturnsEmpty) {
  EXPECT_FALSE(harness::load_records(test::temp_path("definitely_missing.txt"), "x").has_value());
}

TEST(Cache, CorruptedFileReturnsEmpty) {
  const test::TempFile file("cache_test.txt");
  {
    std::ofstream f(file.path);
    f << "RRSPMM_CACHE v2\nfp\n3\ngarbage";
  }
  EXPECT_FALSE(harness::load_records(file.path, "fp").has_value());
}

TEST(Cache, WrongMagicReturnsEmpty) {
  const test::TempFile file("cache_test.txt");
  {
    std::ofstream f(file.path);
    f << "SOMETHING ELSE\nfp\n0\n";
  }
  EXPECT_FALSE(harness::load_records(file.path, "fp").has_value());
}

TEST(Cache, FingerprintCoversEveryKnob) {
  const auto corpus = synth::corpus_config_from_env();
  ExperimentConfig base = tiny_cfg();
  const std::string fp0 = harness::experiment_fingerprint(corpus, base);

  ExperimentConfig c1 = base;
  c1.ks = {32};
  EXPECT_NE(harness::experiment_fingerprint(corpus, c1), fp0);

  ExperimentConfig c2 = base;
  c2.pipeline.reorder.lsh.siglen = 64;
  EXPECT_NE(harness::experiment_fingerprint(corpus, c2), fp0);

  ExperimentConfig c3 = base;
  c3.pipeline.aspt.panel_rows = 128;
  EXPECT_NE(harness::experiment_fingerprint(corpus, c3), fp0);

  ExperimentConfig c4 = base;
  c4.device.l2_bytes = 1024;
  EXPECT_NE(harness::experiment_fingerprint(corpus, c4), fp0);

  ExperimentConfig c5 = base;
  c5.pipeline.dense_ratio_skip = 0.5;
  EXPECT_NE(harness::experiment_fingerprint(corpus, c5), fp0);

  auto corpus2 = corpus;
  corpus2.seed += 1;
  EXPECT_NE(harness::experiment_fingerprint(corpus2, base), fp0);

  // And it is stable for identical inputs.
  EXPECT_EQ(harness::experiment_fingerprint(corpus, base), fp0);
}

}  // namespace
}  // namespace rrspmm
