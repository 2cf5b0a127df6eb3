// StreamingCsrBuilder tests: bitwise identity with CsrMatrix::from_coo
// at every budget (no spill, many spills, one-entry runs), the
// peak-memory accounting, the .rrsb round trip of its output, bounds
// checking, and the io.spill / io.read fault degrade paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "io/rrsb.hpp"
#include "io/streaming_builder.hpp"
#include "sparse/coo.hpp"
#include "synth/rng.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

using sparse::CooMatrix;
using sparse::CsrMatrix;

// An arrival sequence with plenty of duplicates, including float sums
// whose value depends on grouping order — the sharpest probe of the
// spill/merge path.
std::vector<sparse::CooEntry> arrival(index_t rows, index_t cols, offset_t n,
                                      std::uint64_t seed) {
  synth::Rng rng(seed);
  std::vector<sparse::CooEntry> entries;
  entries.reserve(static_cast<std::size_t>(n));
  for (offset_t k = 0; k < n; ++k) {
    const auto r = static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(rows)));
    const auto c = static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(cols) / 4));
    const float magnitude = (k % 7 == 0) ? 1e8f : 1.0f;
    entries.push_back({r, c, rng.next_signed_float() * magnitude});
  }
  return entries;
}

CsrMatrix reference(index_t rows, index_t cols, const std::vector<sparse::CooEntry>& entries) {
  CooMatrix coo(rows, cols);
  for (const auto& e : entries) coo.add(e.row, e.col, e.value);
  return CsrMatrix::from_coo(coo);
}

TEST(IoBuilder, MatchesFromCooAtEveryBudget) {
  const index_t rows = 100, cols = 80;
  const auto entries = arrival(rows, cols, 5000, 3);
  const CsrMatrix ref = reference(rows, cols, entries);
  // Degenerate (clamped to the 1024-entry floor), small, and roomy.
  for (const std::size_t budget : {std::size_t{1}, std::size_t{1u << 14}, std::size_t{1u << 20}}) {
    io::StreamingBuildConfig cfg;
    cfg.budget_bytes = budget;
    io::StreamingCsrBuilder b(rows, cols, cfg);
    b.add_entries(entries);
    EXPECT_EQ(b.entries_added(), static_cast<offset_t>(entries.size()));
    EXPECT_EQ(b.finish(), ref) << "budget " << budget;
  }
}

TEST(IoBuilder, MixedAddAndBatchMatches) {
  const index_t rows = 60, cols = 40;
  const auto entries = arrival(rows, cols, 2500, 4);
  const CsrMatrix ref = reference(rows, cols, entries);
  io::StreamingBuildConfig cfg;
  cfg.budget_bytes = 256;
  io::StreamingCsrBuilder b(rows, cols, cfg);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i % 3 == 0) {
      b.add(entries[i].row, entries[i].col, entries[i].value);
    } else {
      const std::size_t hi = std::min(entries.size(), i + 2);
      b.add_entries(std::span(entries).subspan(i, hi - i));
      i = hi - 1;
    }
  }
  EXPECT_EQ(b.finish(), ref);
}

TEST(IoBuilder, PeakStagingStaysNearBudget) {
  const index_t rows = 200, cols = 100;
  const auto entries = arrival(rows, cols, 20000, 5);
  io::StreamingBuildConfig cfg;
  cfg.budget_bytes = 1u << 15;  // 32 KiB, above the 1024-entry floor
  io::StreamingCsrBuilder b(rows, cols, cfg);
  b.add_entries(entries);
  EXPECT_GE(b.spilled_runs(), 2);
  EXPECT_EQ(b.degraded_runs(), 0);
  // The accounting contract the ingest bench gates on: staged bytes
  // never exceed the budget by more than one entry's rounding.
  EXPECT_LE(b.peak_staging_bytes(), cfg.budget_bytes + sizeof(sparse::CooEntry));
  EXPECT_EQ(b.finish(), reference(rows, cols, entries));
}

TEST(IoBuilder, FinishThenWriteRrsbMatchesFromCoo) {
  const test::TempFile file("iobuilder.rrsb");
  const index_t rows = 150, cols = 70;
  const auto entries = arrival(rows, cols, 4000, 6);
  const CsrMatrix ref = reference(rows, cols, entries);
  io::StreamingBuildConfig cfg;
  cfg.budget_bytes = 2048;
  io::StreamingCsrBuilder b(rows, cols, cfg);
  b.add_entries(entries);
  io::write_rrsb(b.finish(), file.path, /*block_rows=*/32);
  EXPECT_EQ(io::RrsbReader(file.path).read(), ref);
}

TEST(IoBuilder, RejectsOutOfRangeEntries) {
  io::StreamingCsrBuilder b(4, 4);
  EXPECT_THROW(b.add(4, 0, 1.0f), sparse::invalid_matrix);
  EXPECT_THROW(b.add(0, -1, 1.0f), sparse::invalid_matrix);
  b.add(3, 3, 1.0f);
  EXPECT_EQ(b.finish().nnz(), 1);
}

TEST(IoBuilder, SpillFaultDegradesRunToMemory) {
  const index_t rows = 64, cols = 32;
  const auto entries = arrival(rows, cols, 2000, 7);
  const CsrMatrix ref = reference(rows, cols, entries);

  fault::FaultPlan plan;
  plan.seed = 21;
  fault::FaultRule rule;
  rule.point = fault::points::kIoSpill;
  rule.kind = fault::FaultKind::throw_error;
  rule.probability = 1.0;
  rule.max_triggers = 4;  // two spills' worth of double failures
  plan.rules.push_back(rule);
  fault::ScopedFaultPlan armed(std::move(plan));

  io::StreamingBuildConfig cfg;
  cfg.budget_bytes = 1u << 12;
  io::StreamingCsrBuilder b(rows, cols, cfg);
  b.add_entries(entries);
  EXPECT_EQ(b.finish(), ref);  // data survived in memory, bits identical
  EXPECT_GE(b.degraded_runs(), 1);
}

TEST(IoBuilder, ReadFaultDuringMergeRetries) {
  const index_t rows = 64, cols = 32;
  const auto entries = arrival(rows, cols, 2000, 8);
  const CsrMatrix ref = reference(rows, cols, entries);

  io::StreamingBuildConfig cfg;
  cfg.budget_bytes = 1u << 12;
  io::StreamingCsrBuilder b(rows, cols, cfg);
  b.add_entries(entries);
  ASSERT_GE(b.spilled_runs(), 1);

  fault::FaultPlan plan;
  plan.seed = 22;
  fault::FaultRule rule;
  rule.point = fault::points::kIoRead;
  rule.kind = fault::FaultKind::throw_error;
  rule.probability = 1.0;
  rule.max_triggers = 2;
  plan.rules.push_back(rule);
  fault::ScopedFaultPlan armed(std::move(plan));

  EXPECT_EQ(b.finish(), ref);  // run read-back retried, bits identical
}

}  // namespace
}  // namespace rrspmm
