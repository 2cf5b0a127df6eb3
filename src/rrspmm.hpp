// Umbrella header: everything a library consumer typically needs.
//
//   #include <rrspmm/rrspmm.hpp>   (installed)
//   #include "rrspmm.hpp"          (in-tree, with src/ on the include path)
//
// For finer-grained inclusion, pull the individual module headers (each
// is self-contained): core/pipeline.hpp is the main entry point.
#pragma once

#include "aspt/aspt.hpp"
#include "core/baseline_reorder.hpp"
#include "core/fingerprint.hpp"
#include "core/pipeline.hpp"
#include "core/plan_io.hpp"
#include "core/reorder_engine.hpp"
#include "core/vertex_reorder.hpp"
#include "fault/fault.hpp"
#include "gpusim/device.hpp"
#include "io/io.hpp"
#include "gpusim/traffic.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/spmm.hpp"
#include "kernels/spmv.hpp"
#include "lsh/candidates.hpp"
#include "lsh/minhash.hpp"
#include "router/router.hpp"
#include "runtime/runtime.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "sparse/dense_view.hpp"
#include "sparse/io_mm.hpp"
#include "sparse/permute.hpp"
#include "sparse/stats.hpp"
#include "sparse/types.hpp"
#include "sparse/validate.hpp"
#include "spgemm/spgemm.hpp"
