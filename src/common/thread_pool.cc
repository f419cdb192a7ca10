#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "fault/fault.h"
#include "obs/metrics.h"

namespace rlcut {

ThreadPool::ThreadPool(size_t num_threads) : num_threads_(num_threads) {
  RLCUT_CHECK_GE(num_threads, 1u);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  // workers_ is stable now: replacement spawns check shutting_down_
  // under mu_, and the flag write above synchronizes with them.
  for (auto& worker : workers_) worker.join();
  // Fold this pool's lifetime total into the global registry once all
  // workers have quiesced (no concurrent writers remain).
  obs::DefaultRegistry().GetCounter("threadpool.tasks")->Increment(
      tasks_executed_.load(std::memory_order_relaxed));
  const uint64_t errors = errors_seen_.load(std::memory_order_relaxed);
  if (errors > 0) {
    obs::DefaultRegistry().GetCounter("threadpool.task_errors")
        ->Increment(errors);
  }
}

bool ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (shutting_down_) return false;
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
  return true;
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

std::exception_ptr ThreadPool::TakeError() {
  std::unique_lock<std::mutex> lock(mu_);
  return std::exchange(first_error_, nullptr);
}

void ThreadPool::RecordErrorLocked(std::exception_ptr error) {
  if (first_error_ == nullptr) first_error_ = std::move(error);
  errors_seen_.fetch_add(1, std::memory_order_relaxed);
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_available_.wait(
          lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        // shutting_down_ with an empty queue: exit.
        return;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    int64_t stall_ms = 0;
    if (fault::ShouldFire("threadpool.worker_stall", &stall_ms)) {
      fault::CancellableSleepMs(stall_ms > 0 ? stall_ms : 20, nullptr);
    }
    if (fault::ShouldFire("threadpool.worker_crash")) {
      // Simulated worker death: the task is dropped (recorded as an
      // error so barriers and the trainer's re-scoring see it) and this
      // thread exits after arranging a replacement, so pool capacity
      // survives the crash.
      std::unique_lock<std::mutex> lock(mu_);
      RecordErrorLocked(std::make_exception_ptr(
          fault::InjectedFault("threadpool.worker_crash")));
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
      if (!shutting_down_) {
        workers_.emplace_back([this] { WorkerLoop(); });
      }
      return;
    }
    try {
      if (fault::ShouldFire("threadpool.task_throw")) {
        throw fault::InjectedFault("threadpool.task_throw");
      }
      task();
    } catch (...) {
      std::unique_lock<std::mutex> lock(mu_);
      RecordErrorLocked(std::current_exception());
    }
    // Relaxed: the counter is monotonic telemetry, not a synchronization
    // point, so this stays race-free under TSan without ordering cost.
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  ParallelForChunked(n, [&fn](size_t begin, size_t end, size_t /*slot*/) {
    for (size_t i = begin; i < end; ++i) fn(i);
  });
}

void ThreadPool::ParallelForChunked(
    size_t n, const std::function<void(size_t, size_t, size_t)>& fn) {
  if (n == 0) return;
  const size_t num_chunks = std::min(n, num_threads());
  const size_t chunk = (n + num_chunks - 1) / num_chunks;
  for (size_t slot = 0; slot < num_chunks; ++slot) {
    const size_t begin = slot * chunk;
    const size_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    if (!Submit([&fn, begin, end, slot] { fn(begin, end, slot); })) {
      RLCUT_CHECK(false) << "ParallelFor during pool shutdown";
    }
  }
  Wait();
  if (std::exception_ptr error = TakeError()) {
    std::rethrow_exception(error);
  }
}

size_t DefaultThreadCount() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
}

}  // namespace rlcut
