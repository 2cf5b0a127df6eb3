// Functional SIMT executor — a small GPU execution model that *runs* the
// paper's kernels instead of just predicting their traffic.
//
// Kernels are written as warp programs: C++20 coroutines that perform
// real loads/stores through a recording MemorySystem and `co_await
// ctx.yield()` at their natural instruction boundaries (one sparse
// nonzero per step, matching the analytic model in gpusim/traffic.hpp).
// The executor schedules thread blocks over a resident window and
// resumes their warps round-robin — the same interleaving the analytic
// simulators assume — while the MemorySystem plays the L2/DRAM hierarchy
// and tallies the same counters as gpusim::SimResult.
//
// Role in the repository (DESIGN.md §2): the numerical results of a
// kernel run here must match the host CPU kernels, and its traffic
// counters must match the analytic simulators. The test suite asserts
// both, closing the loop between "what the kernels compute", "what the
// model predicts" and "what an execution actually touches".
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/lru_cache.hpp"
#include "sparse/types.hpp"

namespace rrspmm::simt {

using gpusim::DeviceConfig;

/// Traffic counters mirroring gpusim::SimResult's memory fields.
struct TrafficCounters {
  double dram_bytes = 0.0;
  double l2_bytes = 0.0;
  double shared_bytes = 0.0;
  std::uint64_t accesses = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t shared_hits = 0;
};

/// Global-memory hierarchy: owns no data (kernels read/write caller
/// buffers directly) but records every access at the same granularity as
/// the analytic model — whole K-wide dense rows, identified by
/// (space, row).
class MemorySystem {
 public:
  MemorySystem(const DeviceConfig& dev, index_t k)
      : cache_(std::max<std::size_t>(1, dev.l2_bytes / (static_cast<std::size_t>(k) * 4))),
        row_bytes_(static_cast<double>(k) * 4.0) {}

  /// Records a K-wide dense-row read through L2; returns true on L2 hit.
  bool read_row(std::uint64_t space, index_t row) {
    ++counters_.accesses;
    counters_.l2_bytes += row_bytes_;
    const bool hit = cache_.access((space << 32) | static_cast<std::uint32_t>(row));
    if (hit) {
      ++counters_.l2_hits;
    } else {
      counters_.dram_bytes += row_bytes_;
    }
    return hit;
  }

  /// Records a K-wide shared-memory read (dense-tile access).
  void read_shared_row() {
    ++counters_.shared_hits;
    counters_.shared_bytes += row_bytes_;
  }

  /// Records streamed traffic (CSR arrays, output writes) that bypasses
  /// the reuse model.
  void stream_bytes(double bytes) { counters_.dram_bytes += bytes; }

  const TrafficCounters& counters() const { return counters_; }

 private:
  gpusim::LruKeyCache cache_;
  double row_bytes_;
  TrafficCounters counters_;
};

/// Warp coroutine. The promise starts suspended; the scheduler resumes it
/// step by step. Exceptions propagate to the scheduler's caller.
class WarpTask {
 public:
  struct promise_type {
    std::exception_ptr error;
    WarpTask get_return_object() {
      return WarpTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { error = std::current_exception(); }
  };

  WarpTask() = default;
  explicit WarpTask(std::coroutine_handle<promise_type> h) : handle_(h) {}
  WarpTask(WarpTask&& other) noexcept : handle_(other.handle_) { other.handle_ = {}; }
  WarpTask& operator=(WarpTask&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = other.handle_;
      other.handle_ = {};
    }
    return *this;
  }
  WarpTask(const WarpTask&) = delete;
  WarpTask& operator=(const WarpTask&) = delete;
  ~WarpTask() { destroy(); }

  bool done() const { return !handle_ || handle_.done(); }
  void resume() {
    handle_.resume();
    if (handle_.done() && handle_.promise().error) {
      std::rethrow_exception(handle_.promise().error);
    }
  }

 private:
  void destroy() {
    if (handle_) handle_.destroy();
  }
  std::coroutine_handle<promise_type> handle_;
};

/// Per-block state visible to its warps: a shared-memory float buffer
/// and a barrier counter.
struct BlockState {
  std::vector<float> shared;
  int barrier_generation = 0;
  int barrier_arrived = 0;
  int live_warps = 0;
};

/// Context handed to each warp program.
struct WarpCtx {
  index_t block_id = 0;          ///< block index within the launch
  int warp_in_block = 0;         ///< warp index within the block
  MemorySystem* mem = nullptr;
  BlockState* block = nullptr;

  /// Yield point: returns control to the scheduler (one "step").
  std::suspend_always yield() const { return {}; }

  /// Block barrier (__syncthreads at warp granularity). Usage pattern:
  ///
  ///   for (const int gen = ctx.arrive_barrier(); !ctx.barrier_open(gen);)
  ///     co_await ctx.yield();
  ///
  /// Every live warp of the block must participate, or the block
  /// deadlocks — the same contract as CUDA.
  int arrive_barrier() const {
    const int gen = block->barrier_generation + 1;
    if (++block->barrier_arrived == block->live_warps) {
      block->barrier_generation = gen;
      block->barrier_arrived = 0;
    }
    return gen;
  }
  bool barrier_open(int gen) const { return block->barrier_generation >= gen; }
};

/// A launch: `make_warp(block, warp_in_block, ctx)` creates each warp's
/// coroutine. Blocks are scheduled over dev.resident_blocks() slots;
/// within each scheduler turn every live warp of every resident block
/// advances one step.
struct LaunchConfig {
  index_t num_blocks = 0;
  int warps_per_block = 1;
  std::size_t shared_floats = 0;  ///< shared-memory buffer per block
};

using WarpFactory = std::function<WarpTask(index_t block, int warp, WarpCtx& ctx)>;

/// Runs the launch to completion. Throws whatever a warp program throws.
void launch(const DeviceConfig& dev, const LaunchConfig& cfg, MemorySystem& mem,
            const WarpFactory& make_warp);

}  // namespace rrspmm::simt
