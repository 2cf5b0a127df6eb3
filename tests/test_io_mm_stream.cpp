// Chunked Matrix Market reader tests: bitwise identity with the
// resident reader across chunk sizes and budgets, symmetric/pattern
// dialects, arrival-order duplicate summation, header hardening, and
// the end-to-end .mtx -> .rrsb ingest.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "io/mm_stream.hpp"
#include "io/rrsb.hpp"
#include "sparse/io_mm.hpp"
#include "synth/generators.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

using sparse::CsrMatrix;

void write_text(const std::string& path, const std::string& body) {
  std::ofstream f(path, std::ios::trunc);
  f << body;
}

// Chunk sizes the identity sweep runs at: forced-minimum (one entry per
// refill), small, and larger than the whole file.
constexpr std::size_t kChunks[] = {1, 4096, 1u << 20};

TEST(IoMm, StreamedMatchesResidentAtEveryChunkSize) {
  const test::TempFile mm("iomm.mtx");
  const CsrMatrix m = synth::erdos_renyi(120, 90, 900, 7);
  sparse::write_matrix_market(m, mm.path);
  const CsrMatrix resident = sparse::read_matrix_market(mm.path);
  for (const std::size_t chunk : kChunks) {
    EXPECT_EQ(io::read_matrix_market_streamed(mm.path, {}, chunk), resident) << chunk;
  }
}

TEST(IoMm, TinyBudgetSpillsAndStaysIdentical) {
  const test::TempFile mm("iomm.mtx");
  const CsrMatrix m = synth::erdos_renyi(200, 150, 3000, 8);
  sparse::write_matrix_market(m, mm.path);
  const CsrMatrix resident = sparse::read_matrix_market(mm.path);
  io::StreamingBuildConfig cfg;
  cfg.budget_bytes = 1u << 10;  // dozens of spill runs
  for (const std::size_t chunk : kChunks) {
    EXPECT_EQ(io::read_matrix_market_streamed(mm.path, cfg, chunk), resident) << chunk;
  }
}

TEST(IoMm, SymmetricExpansionMatchesResident) {
  const test::TempFile mm("iomm.mtx");
  write_text(mm.path,
             "%%MatrixMarket matrix coordinate real symmetric\n"
             "% lower triangle only\n"
             "4 4 5\n"
             "1 1 5.0\n"
             "2 1 2.5\n"
             "3 2 -4.0\n"
             "4 1 0.125\n"
             "4 4 1.0\n");
  const CsrMatrix resident = sparse::read_matrix_market(mm.path);
  EXPECT_EQ(resident.nnz(), 8);  // 2 diagonal + 3 mirrored pairs
  for (const std::size_t chunk : kChunks) {
    EXPECT_EQ(io::read_matrix_market_streamed(mm.path, {}, chunk), resident) << chunk;
  }
}

TEST(IoMm, PatternMatrixMatchesResident) {
  const test::TempFile mm("iomm.mtx");
  write_text(mm.path,
             "%%MatrixMarket matrix coordinate pattern general\n"
             "3 5 3\n"
             "1 1\n"
             "2 4\n"
             "3 5\n");
  const CsrMatrix resident = sparse::read_matrix_market(mm.path);
  EXPECT_EQ(io::read_matrix_market_streamed(mm.path, {}, 1), resident);
}

TEST(IoMm, DuplicatesSumInArrivalOrder) {
  const test::TempFile mm("iomm.mtx");
  // 1e8f + 1.0f == 1e8f in float, so the grouping order is visible in
  // the result bits: ((1e8 + 1) + -1e8) + 1 == 1, while any regrouping
  // gives 2. The streamed path must reproduce from_coo's left-to-right
  // arrival-order sum at every chunk size.
  write_text(mm.path,
             "%%MatrixMarket matrix coordinate real general\n"
             "2 2 4\n"
             "1 1 1e8\n"
             "1 1 1\n"
             "1 1 -1e8\n"
             "1 1 1\n");
  const CsrMatrix resident = sparse::read_matrix_market(mm.path);
  ASSERT_EQ(resident.nnz(), 1);
  EXPECT_FLOAT_EQ(resident.values()[0], 1.0f);
  for (const std::size_t chunk : kChunks) {
    const CsrMatrix s = io::read_matrix_market_streamed(mm.path, {}, chunk);
    EXPECT_EQ(s, resident) << chunk;
  }
}

TEST(IoMm, HeaderExposesDialect) {
  const test::TempFile mm("iomm.mtx");
  write_text(mm.path,
             "%%MatrixMarket matrix coordinate pattern symmetric\n"
             "6 6 2\n"
             "1 1\n"
             "3 2\n");
  io::MmChunkReader r(mm.path);
  EXPECT_EQ(r.header().rows, 6);
  EXPECT_EQ(r.header().cols, 6);
  EXPECT_EQ(r.header().declared_entries, 2);
  EXPECT_TRUE(r.header().pattern);
  EXPECT_TRUE(r.header().symmetric);
  std::vector<sparse::CooEntry> chunk;
  ASSERT_TRUE(r.next_chunk(chunk));
  while (r.next_chunk(chunk)) {
  }
  EXPECT_EQ(r.entries_emitted(), 3);  // one diagonal + one mirrored pair
}

TEST(IoMm, RejectsMalformedHeaders) {
  const test::TempFile mm("iomm.mtx");
  write_text(mm.path, "%%MatrixMarket matrix array real general\n2 2\n");
  EXPECT_THROW(io::MmChunkReader{mm.path}, sparse::io_error);
  write_text(mm.path, "%%MatrixMarket matrix coordinate real general\n");
  EXPECT_THROW(io::MmChunkReader{mm.path}, sparse::io_error);
  write_text(mm.path, "%%MatrixMarket matrix coordinate real general\n-3 2 1\n");
  EXPECT_THROW(io::MmChunkReader{mm.path}, sparse::io_error);
  EXPECT_THROW(io::MmChunkReader{test::temp_path("no_such_file.mtx")}, sparse::io_error);
}

TEST(IoMm, RejectsBadEntries) {
  const test::TempFile mm("iomm.mtx");
  // Out-of-range index.
  write_text(mm.path,
             "%%MatrixMarket matrix coordinate real general\n"
             "2 2 1\n"
             "3 1 1.0\n");
  EXPECT_THROW(io::read_matrix_market_streamed(mm.path), sparse::io_error);
  // Truncated entry list.
  write_text(mm.path,
             "%%MatrixMarket matrix coordinate real general\n"
             "2 2 3\n"
             "1 1 1.0\n");
  EXPECT_THROW(io::read_matrix_market_streamed(mm.path), sparse::io_error);
  // Garbage where a value should be.
  write_text(mm.path,
             "%%MatrixMarket matrix coordinate real general\n"
             "2 2 1\n"
             "1 1 zebra\n");
  EXPECT_THROW(io::read_matrix_market_streamed(mm.path), sparse::io_error);
}

TEST(IoMm, IngestToRrsbNeverResidentMatchesResident) {
  const test::TempFile mm("iomm.mtx");
  const test::TempFile rrsb("iomm.rrsb");
  const CsrMatrix m = synth::erdos_renyi(300, 80, 2400, 9);
  sparse::write_matrix_market(m, mm.path);
  io::StreamingBuildConfig cfg;
  cfg.budget_bytes = 1u << 12;
  io::ingest_to_rrsb(mm.path, rrsb.path, cfg, /*block_rows=*/64, /*chunk_bytes=*/4096);
  const io::RrsbReader shard(rrsb.path);
  EXPECT_EQ(shard.read_range(0, shard.rows()), sparse::read_matrix_market(mm.path));
}

}  // namespace
}  // namespace rrspmm
