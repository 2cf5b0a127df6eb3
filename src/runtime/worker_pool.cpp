#include "runtime/worker_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <utility>

#include "fault/fault.hpp"

namespace rrspmm::runtime {

unsigned WorkerPool::default_threads() {
  if (const char* env = std::getenv("RRSPMM_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

WorkerPool::WorkerPool(unsigned threads) {
  const unsigned n = threads > 0 ? threads : default_threads();
  slots_.reserve(n);
  for (unsigned i = 0; i < n; ++i) slots_.push_back(std::make_unique<Slot>());
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) workers_.emplace_back([this, i] { worker_loop(i); });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lk(wake_m_);
    stop_.store(true, std::memory_order_release);
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void WorkerPool::submit(std::function<void()> task) {
  Slot& s = *slots_[next_slot_.fetch_add(1, std::memory_order_relaxed) % slots_.size()];
  {
    std::lock_guard<std::mutex> lk(s.m);
    s.q.push_back(std::move(task));
  }
  {
    // Increment under wake_m_ so it cannot slip between a worker's
    // predicate check and its sleep (the lost-wakeup window).
    std::lock_guard<std::mutex> lk(wake_m_);
    queued_.fetch_add(1, std::memory_order_release);
  }
  wake_cv_.notify_one();
}

bool WorkerPool::try_run_one(unsigned self) {
  std::function<void()> task;
  // Own deque: back (LIFO).
  {
    Slot& s = *slots_[self];
    std::lock_guard<std::mutex> lk(s.m);
    if (!s.q.empty()) {
      task = std::move(s.q.back());
      s.q.pop_back();
    }
  }
  // Steal from a victim's front (FIFO).
  const unsigned n = static_cast<unsigned>(slots_.size());
  for (unsigned d = 1; d < n && !task; ++d) {
    Slot& s = *slots_[(self + d) % n];
    std::lock_guard<std::mutex> lk(s.m);
    if (!s.q.empty()) {
      task = std::move(s.q.front());
      s.q.pop_front();
    }
  }
  if (!task) return false;
  queued_.fetch_sub(1, std::memory_order_acq_rel);
  // Stall-only: a throw here would escape the worker loop and terminate.
  fault::hit_nothrow(fault::points::kWorkerTask);
  task();
  return true;
}

void WorkerPool::worker_loop(unsigned id) {
  for (;;) {
    if (try_run_one(id)) continue;
    std::unique_lock<std::mutex> lk(wake_m_);
    wake_cv_.wait(lk, [this] {
      return queued_.load(std::memory_order_acquire) > 0 ||
             stop_.load(std::memory_order_acquire);
    });
    if (stop_.load(std::memory_order_acquire) &&
        queued_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

void WorkerPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  const unsigned nw = size();
  if (nw <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  // Shared loop state. Heap-allocated and shared with the helper tasks so
  // a helper that gets scheduled *after* the loop has finished (it will
  // find next >= n and exit immediately) still touches valid memory. The
  // caller waits for done == n, not for the helpers to run, so tail
  // latency is one chunk, not one queue drain.
  struct State {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::size_t n;
    const std::function<void(std::size_t)>* body;
    std::mutex m;
    std::condition_variable cv;
    std::exception_ptr error;
  };
  auto st = std::make_shared<State>();
  st->n = n;
  st->body = &body;

  auto run_chunks = [](const std::shared_ptr<State>& s) {
    std::size_t i;
    while ((i = s->next.fetch_add(1, std::memory_order_relaxed)) < s->n) {
      try {
        fault::hit(fault::points::kWorkerChunk);
        (*s->body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(s->m);
        if (!s->error) s->error = std::current_exception();
      }
      if (s->done.fetch_add(1, std::memory_order_acq_rel) + 1 == s->n) {
        std::lock_guard<std::mutex> lk(s->m);
        s->cv.notify_all();
      }
    }
  };

  const std::size_t helpers = std::min<std::size_t>(nw, n) - 1;
  for (std::size_t h = 0; h < helpers; ++h) submit([st, run_chunks] { run_chunks(st); });
  run_chunks(st);

  std::unique_lock<std::mutex> lk(st->m);
  st->cv.wait(lk, [&] { return st->done.load(std::memory_order_acquire) == st->n; });
  if (st->error) std::rethrow_exception(st->error);
}

}  // namespace rrspmm::runtime
