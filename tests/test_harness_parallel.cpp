// Satellite acceptance test: run_experiment fanned out over the worker
// pool must produce records byte-identical to the sequential run. We
// serialise both runs with the same fingerprint and compare the files.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/cache.hpp"
#include "harness/experiment.hpp"
#include "synth/corpus.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<harness::MatrixRecord> run_with_threads(const char* threads,
                                                    const std::vector<synth::CorpusEntry>& corpus,
                                                    const harness::ExperimentConfig& cfg) {
  EXPECT_EQ(setenv("RRSPMM_THREADS", threads, 1), 0);
  auto records = harness::run_experiment(corpus, cfg);
  EXPECT_EQ(unsetenv("RRSPMM_THREADS"), 0);
  return records;
}

// The only nondeterministic record fields are the measured wall-clock
// preprocessing timings; zero them so the byte comparison covers every
// computed quantity (stats, plans, simulated traffic/time) only.
void zero_wall_clock(std::vector<harness::MatrixRecord>& records) {
  for (auto& rec : records) {
    rec.rr.preprocess_seconds = 0.0;
    rec.nr_preprocess_seconds = 0.0;
    rec.rr.sig_ms = 0.0;
    rec.rr.band_ms = 0.0;
    rec.rr.score_ms = 0.0;
    rec.rr.merge_ms = 0.0;
  }
}

TEST(HarnessParallel, RecordsAreByteIdenticalToSequentialRun) {
  const auto corpus = synth::build_test_corpus();
  harness::ExperimentConfig cfg;
  cfg.ks = {16};
  cfg.verbose = false;

  auto seq = run_with_threads("1", corpus, cfg);
  auto par = run_with_threads("4", corpus, cfg);
  zero_wall_clock(seq);
  zero_wall_clock(par);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].name, par[i].name) << "record order must follow corpus index";
  }

  const test::TempFile seq_file("records_seq.bin");
  const test::TempFile par_file("records_par.bin");
  harness::save_records(seq_file.path, "parallel-determinism", seq);
  harness::save_records(par_file.path, "parallel-determinism", par);

  const std::string seq_bytes = slurp(seq_file.path);
  const std::string par_bytes = slurp(par_file.path);

  ASSERT_FALSE(seq_bytes.empty());
  EXPECT_EQ(seq_bytes, par_bytes)
      << "parallel run_experiment must serialise byte-identically to sequential";
}

}  // namespace
}  // namespace rrspmm
