// Execution-plan serialisation.
//
// The paper's deployment story (§4, §5.4) is offline preprocessing: the
// reordering is computed once ("at compile time" for GNN inference) and
// reused across runs. This module persists an ExecutionPlan — the
// round-1 permutation, the complete ASpT tiling, the round-2 processing
// order and the pipeline statistics — so the expensive LSH + clustering
// never reruns in deployment:
//
//   core::save_plan(plan, "web.plan");
//   core::ExecutionPlan plan = core::load_plan("web.plan");   // ~I/O cost
//
// Format: little-endian binary, magic "RRSPMMPLAN" + version. Loading
// revalidates every structural invariant through AsptMatrix::from_parts,
// so a corrupted or truncated file throws instead of producing a plan
// that computes garbage.
#pragma once

#include <iosfwd>
#include <string>

#include "core/pipeline.hpp"

namespace rrspmm::core {

void save_plan(const ExecutionPlan& plan, const std::string& path);
void save_plan(const ExecutionPlan& plan, std::ostream& out);

/// Throws io_error on malformed input, invalid_matrix on structural
/// corruption.
ExecutionPlan load_plan(const std::string& path);
ExecutionPlan load_plan(std::istream& in);

}  // namespace rrspmm::core
