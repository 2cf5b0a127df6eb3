// The paper's GPU kernels as warp programs for the functional SIMT
// executor. Each entry point both computes the result (into caller
// buffers) and returns the traffic counters its execution generated —
// the tests assert that the numbers match the host CPU kernels and
// that the counters match the analytic simulators in gpusim/traffic.hpp
// access for access.
//
// Byte accounting deliberately mirrors the analytic model (see
// traffic.hpp): CSR arrays and outputs are streamed, dense-row reads go
// through the recording L2, dense-tile reads hit shared memory. Warp
// programs yield between sparse nonzeros (and between staged dense
// columns), giving the exact round-robin interleaving the analytic
// simulators replay.
#pragma once

#include <vector>

#include "aspt/aspt.hpp"
#include "simt/executor.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"

namespace rrspmm::simt {

using aspt::AsptMatrix;
using sparse::CsrMatrix;
using sparse::DenseMatrix;

/// Row-wise SpMM: one warp per sparse row, warps_per_block rows per
/// block. y is overwritten.
TrafficCounters spmm_rowwise_simt(const CsrMatrix& s, const DenseMatrix& x, DenseMatrix& y,
                                  const DeviceConfig& dev,
                                  const std::vector<index_t>* row_order = nullptr);

/// ASpT SpMM: dense-tile kernel (one block per panel, staging dense
/// columns into block shared memory) followed by a row-wise kernel over
/// the sparse remainder, sharing one L2. y is overwritten.
TrafficCounters spmm_aspt_simt(const AsptMatrix& a, const DenseMatrix& x, DenseMatrix& y,
                               const DeviceConfig& dev,
                               const std::vector<index_t>* sparse_order = nullptr);

/// Row-wise SDDMM; `out` aligned with s's nonzero order.
TrafficCounters sddmm_rowwise_simt(const CsrMatrix& s, const DenseMatrix& x,
                                   const DenseMatrix& y, std::vector<value_t>& out,
                                   const DeviceConfig& dev,
                                   const std::vector<index_t>* row_order = nullptr);

/// ASpT SDDMM; `out` aligned with the CSR the tiling was built from.
TrafficCounters sddmm_aspt_simt(const AsptMatrix& a, const DenseMatrix& x, const DenseMatrix& y,
                                std::vector<value_t>& out, const DeviceConfig& dev,
                                const std::vector<index_t>* sparse_order = nullptr);

}  // namespace rrspmm::simt
