// CSR×CSR sparse-sparse multiplication (SpGEMM), Gustavson row-wise.
//
// C = A * B with all three matrices in CSR. Two-phase structure:
//
//   symbolic  — exact per-row output counts (distinct columns of
//               ∪_{j∈A_i} B_j), prefix-summed into C's rowptr, so the
//               output arrays are allocated exactly once;
//   numeric   — fills each row's colidx/values segment through a row
//               accumulator (accumulators.hpp): dense bitmap, hash-map or
//               sort-based, selected by SpgemmConfig.
//
// Determinism contract (mirrors the kernels/ row-range ABI): every
// numeric entry point writes its target rows' segments completely and
// independently, so any partition of [0, rows) across threads, shards or
// re-executions is bitwise identical to the sequential multiply — and
// the accumulator choice never changes result bits either (see
// accumulators.hpp for why). The row-range overloads take an optional
// processing-order permutation so runtime::WorkerPool and
// dist::ShardedExecutor can fan out contiguous ranges of the *permuted*
// row space — reusing the paper's LSH/cluster reordering of the left
// operand for shard locality — while C stays in A's original row order.
//
// Fault probes: symbolic chunks hit fault::points::kSpgemmSymbolic and
// numeric ranges kSpgemmAccumulate when cfg.probes is set. Recovery
// layers re-run or degrade with probes off.
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/types.hpp"

namespace rrspmm::spgemm {

using sparse::CsrMatrix;

/// Row accumulator selection. auto_select uses the dense accumulator
/// when B has at most kDenseMaxCols columns; on wider B it picks per row
/// by the row's upper-bound contribution count (≤ sort_threshold → sort,
/// else hash). Either way the choice is a pure function of the input
/// structure, so it is identical on every thread/shard and never affects
/// result bits, only speed.
enum class Accumulator : std::uint8_t {
  hash = 0,
  sort = 1,
  auto_select = 2,
};

/// Widest B the dense accumulator (and the bitmap symbolic pass) takes:
/// 256 KiB of values plus an 8 KiB column bitmap per thread, small
/// enough to stay cache-resident.
inline constexpr index_t kDenseMaxCols = index_t{1} << 16;

const char* to_string(Accumulator a);

struct SpgemmConfig {
  Accumulator accumulator = Accumulator::auto_select;
  /// auto_select boundary: rows whose upper-bound product count is at
  /// most this use the sort accumulator.
  offset_t sort_threshold = 192;
  /// Consult the compiled-in fault probes. The degraded sequential path
  /// runs with probes off so an armed chaos plan cannot re-fault it.
  bool probes = true;
};

/// Output of the symbolic phase.
struct SymbolicResult {
  std::vector<offset_t> rowptr;   ///< exact C rowptr, size A.rows()+1
  offset_t upper_bound_nnz = 0;   ///< Σ over A's nonzeros (i,j) of |B_j|
  double flops = 0.0;             ///< 2 * upper_bound_nnz (mul + add per product)

  offset_t nnz() const { return rowptr.empty() ? 0 : rowptr.back(); }
};

/// Per-call accumulator-choice histogram (rows accumulated by each kind).
struct AccumulatorCounts {
  std::uint64_t hash_rows = 0;
  std::uint64_t sort_rows = 0;
  std::uint64_t dense_rows = 0;
};

/// Upper-bound contribution count of output row `row`: Σ_{j∈A_row} |B_j|.
/// The quantity auto_select decides on for wide B.
offset_t row_upper_bound(const CsrMatrix& a, const CsrMatrix& b, index_t row);

/// Symbolic row range: writes the exact output count of rows
/// [row_begin, row_end) into counts[row - row_begin]. Hits
/// kSpgemmSymbolic once per call when cfg.probes. No shape validation
/// (range entry point; full-matrix callers validate once).
void symbolic_rows(const CsrMatrix& a, const CsrMatrix& b, offset_t* counts, index_t row_begin,
                   index_t row_end, const SpgemmConfig& cfg = {});

/// Full symbolic phase (sequential): validates operand shapes, counts
/// every row, prefix-sums into rowptr.
SymbolicResult symbolic(const CsrMatrix& a, const CsrMatrix& b, const SpgemmConfig& cfg = {});

/// Numeric row range: fills colidx/values segments [rowptr[r], rowptr[r+1])
/// for each target row r. Positions [row_begin, row_end) index the
/// *processing* order: with `row_order` (a gather permutation of
/// [0, A.rows())) position p computes output row row_order[p]; without
/// it, row p itself. Hits kSpgemmAccumulate once per call when
/// cfg.probes. `counts`, when given, accumulates the accumulator-choice
/// histogram. Each target row's segment is written completely, so
/// re-running a range is idempotent.
void numeric_rows(const CsrMatrix& a, const CsrMatrix& b, const std::vector<offset_t>& rowptr,
                  index_t* colidx, value_t* values, index_t row_begin, index_t row_end,
                  const SpgemmConfig& cfg = {}, const std::vector<index_t>* row_order = nullptr,
                  AccumulatorCounts* counts = nullptr);

/// Sequential convenience: symbolic + numeric over all rows. Validates
/// both operands (sparse::validate_csr) and the result's construction
/// re-checks the output invariants, so a structurally broken product
/// cannot escape. This is also the degradation target: recovery layers
/// call it with {Accumulator::sort, probes=false}.
CsrMatrix multiply(const CsrMatrix& a, const CsrMatrix& b, const SpgemmConfig& cfg = {},
                   AccumulatorCounts* counts = nullptr);

}  // namespace rrspmm::spgemm
