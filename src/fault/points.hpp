// Canonical fail-point names.
//
// Every FailPoint compiled into the hot subsystems is listed here, so a
// FaultPlan can be written against stable identifiers and the docs have
// one place to enumerate what can be broken. A point marked "stall-only"
// sits at a call site that cannot unwind (a lock is held, or the throw
// would escape into a worker thread and terminate); those sites use
// fault::hit_nothrow, which silently ignores throw rules.
#pragma once

namespace rrspmm::fault::points {

/// WorkerPool: before a dequeued task runs. Stall-only (a throw would
/// escape the worker loop).
inline constexpr const char* kWorkerTask = "worker.task";

/// WorkerPool::parallel_for: before each loop chunk. A throw is captured
/// by the loop and rethrown in the caller, like any body exception.
inline constexpr const char* kWorkerChunk = "worker.chunk";

/// PlanCache: at the start of a plan build. A throw propagates through
/// the single-flight future to every waiter; the failed entry is dropped
/// so a retry rebuilds.
inline constexpr const char* kPlanCacheBuild = "plan_cache.build";

/// PlanCache: inside the eviction scan, under the cache lock. Stall-only
/// (widens eviction-storm races; a throw here would strand an in-flight
/// entry).
inline constexpr const char* kPlanCacheEvict = "plan_cache.evict";

/// Server::submit / submit_sddmm: between admission and the queue push —
/// the widest submit/stop race window. Stall-only (the request is
/// already counted in flight).
inline constexpr const char* kServerSubmit = "server.submit";

/// Server drain task: between popping a request and executing it — the
/// stop-during-drain window. Stall-only.
inline constexpr const char* kServerDrain = "server.drain";

/// lsh signature stage: before each parallel signature chunk (classic
/// and one-permutation). A throw propagates out of compute_signatures;
/// core::reorder_rows catches it and degrades to the sequential path,
/// which carries no probes and produces the identical result.
inline constexpr const char* kPreprocSignature = "preproc.signature";

/// lsh scoring stage: before each parallel Jaccard-verification chunk.
/// Same degradation contract as preproc.signature.
inline constexpr const char* kPreprocScore = "preproc.score";

/// Multi-device simulator (dist::simulate_spmm_sharded): once per
/// non-empty simulated shard. Stall-only: a stall is a slow straggler
/// device.
inline constexpr const char* kShardStraggler = "shard.straggler";

/// Multi-device simulator: once per non-empty simulated shard, before
/// its kernel is modelled. A throw models an interconnect timeout and
/// propagates out of the simulation.
inline constexpr const char* kShardInterconnect = "shard.interconnect";

/// spgemm: before a symbolic (row-counting) chunk runs. A throw
/// propagates out of the symbolic pass; the server's retry loop catches
/// it and ultimately degrades to the sequential sort-based multiply,
/// which runs with probes disabled and is bitwise-equal.
inline constexpr const char* kSpgemmSymbolic = "spgemm.symbolic";

/// spgemm: before a numeric (accumulation) row-range runs. Same
/// degradation contract as spgemm.symbolic.
inline constexpr const char* kSpgemmAccumulate = "spgemm.accumulate";

/// io: before a disk read (an mmap-path block access or a buffered
/// pread/refill) in the .rrsb reader and the Matrix Market chunk
/// reader. A throw models a failed read: the mmap fast path degrades
/// permanently to buffered reads and retries; the buffered path retries
/// once, then propagates as io_error.
inline constexpr const char* kIoRead = "io.read";

}  // namespace rrspmm::fault::points
