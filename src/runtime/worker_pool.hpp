// Fixed-size thread pool with per-worker work-stealing deques.
//
// Each worker owns a deque: it pushes and pops at the back (LIFO keeps a
// worker on the data it just touched), while idle workers steal from the
// front of a victim's deque (FIFO steals the oldest — typically largest —
// task, the classic work-stealing discipline). External submissions are
// distributed round-robin across the deques.
//
// parallel_for is the primitive the SpMM runtime builds on: the caller
// thread participates, chunks are claimed from a shared atomic cursor
// (so the loop also balances within a single large matrix), and the call
// returns only after every index has run. It is safe to call from inside
// a pool task — the caller claims chunks itself, so nested loops make
// progress even when every worker is busy.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>


namespace rrspmm::runtime {

class WorkerPool {
 public:
  /// `threads` == 0 means default_threads().
  explicit WorkerPool(unsigned threads = 0);

  /// Drains every queued task, then joins the workers.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueues a fire-and-forget task.
  void submit(std::function<void()> task);

  /// Enqueues a task and returns a future for its result.
  template <typename F>
  auto async(F f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(f));
    std::future<R> fut = task->get_future();
    submit([task] { (*task)(); });
    return fut;
  }

  /// Runs body(0..n-1) across the pool and the calling thread; returns
  /// when all n indices have completed. The first exception thrown by
  /// `body` is rethrown in the caller (remaining indices still run).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// The RRSPMM_THREADS env knob, defaulting to hardware_concurrency
  /// (min 1). Shared by every pool constructed with threads == 0.
  static unsigned default_threads();

 private:
  struct Slot {
    std::mutex m;
    std::deque<std::function<void()>> q;
  };

  void worker_loop(unsigned id);
  bool try_run_one(unsigned self);

  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::thread> workers_;
  std::mutex wake_m_;
  std::condition_variable wake_cv_;
  std::atomic<std::size_t> queued_{0};
  std::atomic<std::size_t> next_slot_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace rrspmm::runtime
