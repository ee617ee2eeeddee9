#include "common/thread_pool.h"

#include <algorithm>

#include "common/assert.h"
#include "common/env.h"

namespace hytap {

namespace {

/// Set while a pool helper executes morsels: nested ParallelFor calls from
/// inside a worker run inline instead of re-entering the pool.
thread_local bool tls_inside_pool_worker = false;

/// Ambient priority of ParallelFor calls issued from this thread (see
/// ThreadPool::PriorityGuard).
thread_local ThreadPool::TaskPriority tls_task_priority =
    ThreadPool::TaskPriority::kNormal;

}  // namespace

ThreadPool::PriorityGuard::PriorityGuard(TaskPriority priority)
    : previous_(tls_task_priority) {
  tls_task_priority = priority;
}

ThreadPool::PriorityGuard::~PriorityGuard() {
  tls_task_priority = previous_;
}

/// One ParallelFor invocation. Shared (via shared_ptr) between the caller
/// and the helper slots it enqueued, so a helper that dequeues the task
/// after the caller already finished still finds valid state and exits
/// without touching `fn`.
struct ThreadPool::Task {
  size_t begin = 0;
  size_t end = 0;
  size_t grain = 1;
  size_t morsels = 0;
  TaskPriority priority = TaskPriority::kNormal;
  std::function<void(size_t, size_t, size_t)> fn;

  /// Next unclaimed morsel index. Cancellation stores `morsels` here so
  /// late claimants drop out immediately.
  std::atomic<size_t> next{0};
  /// Helpers currently inside RunMorsels for this task.
  std::atomic<size_t> executing{0};

  std::mutex mutex;
  std::condition_variable done;
  std::exception_ptr error;  // first exception, guarded by `mutex`
};

ThreadPool::ThreadPool(size_t total_workers) {
  const size_t helpers = total_workers > 1 ? total_workers - 1 : 0;
  helpers_.reserve(helpers);
  for (size_t i = 0; i < helpers; ++i) {
    helpers_.emplace_back([this] { HelperLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& helper : helpers_) helper.join();
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool(DefaultWorkerCount());
  return pool;
}

size_t ThreadPool::DefaultWorkerCount() {
  const uint64_t threads = EnvU64("HYTAP_THREADS", 0);
  if (threads >= 1 && threads <= 1024) {
    return static_cast<size_t>(threads);
  }
  const size_t hw = std::thread::hardware_concurrency();
  return std::max<size_t>(hw, 8);
}

void ThreadPool::HelperLoop() {
  for (;;) {
    std::shared_ptr<Task> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] {
        return stop_ || !queue_.empty() || !high_queue_.empty();
      });
      if (queue_.empty() && high_queue_.empty()) {
        return;  // stop_ set and nothing left to drain
      }
      if (!high_queue_.empty()) {
        task = std::move(high_queue_.front());
        high_queue_.pop_front();
        high_pending_.fetch_sub(1, std::memory_order_relaxed);
      } else {
        task = std::move(queue_.front());
        queue_.pop_front();
      }
    }
    task->executing.fetch_add(1, std::memory_order_acq_rel);
    tls_inside_pool_worker = true;
    const bool yielded = RunMorsels(*task, /*yieldable=*/true);
    tls_inside_pool_worker = false;
    if (yielded) {
      // Hand the abandoned task's remaining morsels to the next free helper
      // (its caller keeps claiming them regardless, so progress is
      // guaranteed even if every helper stays on high-priority work).
      priority_yields_.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_front(task);
      }
      wake_.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(task->mutex);
      task->executing.fetch_sub(1, std::memory_order_acq_rel);
    }
    task->done.notify_all();
  }
}

bool ThreadPool::RunMorsels(Task& task, bool yieldable) {
  for (;;) {
    if (yieldable && task.priority == TaskPriority::kNormal &&
        high_pending_.load(std::memory_order_relaxed) > 0 &&
        task.next.load(std::memory_order_relaxed) < task.morsels) {
      return true;  // yield between morsels, never inside one
    }
    const size_t m = task.next.fetch_add(1, std::memory_order_relaxed);
    if (m >= task.morsels) return false;
    const size_t morsel_begin = task.begin + m * task.grain;
    const size_t morsel_end =
        std::min(task.end, morsel_begin + task.grain);
    try {
      task.fn(m, morsel_begin, morsel_end);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(task.mutex);
        if (!task.error) task.error = std::current_exception();
      }
      // Forfeit the unclaimed morsels: late claimants see next >= morsels.
      task.next.store(task.morsels, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::ParallelFor(
    size_t begin, size_t end, size_t grain, uint32_t max_workers,
    const std::function<void(size_t, size_t, size_t)>& fn) {
  ParallelFor(begin, end, grain, max_workers, tls_task_priority, fn);
}

void ThreadPool::ParallelFor(
    size_t begin, size_t end, size_t grain, uint32_t max_workers,
    TaskPriority priority,
    const std::function<void(size_t, size_t, size_t)>& fn) {
  HYTAP_ASSERT(grain >= 1, "ParallelFor grain must be >= 1");
  const size_t morsels = MorselCount(begin, end, grain);
  if (morsels == 0) return;
  size_t workers = std::min<size_t>(max_workers == 0 ? 1 : max_workers,
                                    helpers_.size() + 1);
  workers = std::min(workers, max_workers_cap_.load(std::memory_order_relaxed));
  workers = std::min(workers, morsels);
  if (workers <= 1 || tls_inside_pool_worker) {
    // Serial fast path, and the nested case: a worker thread must never
    // block on the pool it is draining. Exceptions propagate directly.
    for (size_t m = 0; m < morsels; ++m) {
      const size_t morsel_begin = begin + m * grain;
      fn(m, morsel_begin, std::min(end, morsel_begin + grain));
    }
    return;
  }

  auto task = std::make_shared<Task>();
  task->begin = begin;
  task->end = end;
  task->grain = grain;
  task->morsels = morsels;
  task->priority = priority;
  task->fn = fn;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (priority == TaskPriority::kHigh) {
      for (size_t i = 0; i + 1 < workers; ++i) high_queue_.push_back(task);
      high_pending_.fetch_add(workers - 1, std::memory_order_relaxed);
    } else {
      for (size_t i = 0; i + 1 < workers; ++i) queue_.push_back(task);
    }
  }
  wake_.notify_all();

  RunMorsels(*task, /*yieldable=*/false);  // the caller is a worker too

  // The caller's loop only returns once every morsel is claimed; wait for
  // helpers still executing theirs. Helper slots never dequeued simply find
  // an exhausted task later and drop it.
  {
    std::unique_lock<std::mutex> lock(task->mutex);
    task->done.wait(lock, [&task] {
      return task->executing.load(std::memory_order_acquire) == 0;
    });
    if (task->error) std::rethrow_exception(task->error);
  }
}

}  // namespace hytap
