#ifndef HYTAP_COMMON_THREAD_POOL_H_
#define HYTAP_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace hytap {

/// Rows per morsel of a vectorized MRC scan. Large enough that per-morsel
/// scheduling overhead is negligible against a bit-packed decode, small
/// enough that a multi-million-row column splits into hundreds of morsels
/// for even load balancing.
inline constexpr size_t kScanMorselRows = 1 << 16;

/// Pages per morsel of an SSCG sequential scan (64 x 4 KB = 256 KB of row
/// data per morsel).
inline constexpr size_t kScanMorselPages = 64;

/// Qualifying positions per morsel of parallel tuple materialization.
inline constexpr size_t kMaterializeMorselRows = 1 << 12;

/// A shared, lazily-started worker pool with a morsel-driven ParallelFor.
///
/// Scheduling model: ParallelFor splits [begin, end) into dense, contiguous
/// morsels of at most `grain` elements. Workers (the calling thread plus up
/// to max_workers - 1 pool threads) claim morsel indices from a shared
/// atomic counter, so load balances dynamically, yet every morsel knows its
/// index — callers write per-morsel results into a pre-sized vector and
/// concatenate in index order, which makes the merged output identical to a
/// serial left-to-right execution regardless of interleaving.
///
/// The calling thread always participates, so a ParallelFor makes progress
/// even when every pool thread is busy. A ParallelFor issued from inside a
/// pool worker (nested parallelism) runs its morsels inline on that worker,
/// which keeps the pool deadlock-free.
///
/// Exceptions thrown by `fn` cancel the remaining morsels; the first
/// exception is rethrown on the calling thread once in-flight morsels have
/// drained.
///
/// Fairness under concurrent queries: each ParallelFor carries a priority.
/// Helpers drain high-priority tasks first, and a helper working a
/// normal-priority task yields it back at the next morsel boundary while
/// unclaimed high-priority work is queued — so a long OLAP scan cannot
/// starve a short OLTP probe of helpers. The yielding is pure scheduling
/// (the abandoned task is re-enqueued and its caller always participates),
/// so results and morsel merges are unaffected.
class ThreadPool {
 public:
  enum class TaskPriority { kNormal = 0, kHigh = 1 };
  /// Spawns `total_workers - 1` helper threads (the caller is the remaining
  /// worker). `total_workers == 1` spawns nothing; ParallelFor runs inline.
  explicit ThreadPool(size_t total_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool, started on first use with DefaultWorkerCount()
  /// workers.
  static ThreadPool& Global();

  /// HYTAP_THREADS environment override, else
  /// max(hardware_concurrency, 8). The floor keeps intra-query parallelism
  /// (and its race coverage under TSAN) real even on small CI machines; the
  /// OS time-slices when cores are scarce. The pool starts one OS thread
  /// per worker but the caller, so an override above 1024 keeps the
  /// default.
  static size_t DefaultWorkerCount();

  /// Helper threads owned by the pool (callers add one more).
  size_t helper_count() const { return helpers_.size(); }

  /// Runtime cap on concurrent workers per ParallelFor, including the
  /// caller. Setting 1 forces every ParallelFor inline (serial); used by the
  /// equivalence tests to prove parallel execution does not change results.
  void set_max_workers(size_t cap) {
    max_workers_cap_.store(cap == 0 ? 1 : cap, std::memory_order_relaxed);
  }
  size_t max_workers() const {
    return max_workers_cap_.load(std::memory_order_relaxed);
  }

  /// Number of morsels ParallelFor(begin, end, grain, ...) produces.
  static size_t MorselCount(size_t begin, size_t end, size_t grain) {
    return begin >= end ? 0 : (end - begin + grain - 1) / grain;
  }

  /// Runs fn(morsel_index, morsel_begin, morsel_end) for every morsel of
  /// [begin, end); morsel m covers
  /// [begin + m * grain, min(end, begin + (m + 1) * grain)). At most
  /// `max_workers` workers run concurrently (including the caller). Blocks
  /// until all morsels finish; rethrows the first exception thrown by fn.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   uint32_t max_workers,
                   const std::function<void(size_t, size_t, size_t)>& fn);

  /// ParallelFor with an explicit task priority (the 5-arg overload uses the
  /// calling thread's ambient priority, see PriorityGuard).
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   uint32_t max_workers, TaskPriority priority,
                   const std::function<void(size_t, size_t, size_t)>& fn);

  /// Sets the ambient task priority of the current thread for the guard's
  /// lifetime: every ParallelFor issued from this thread (at any call depth,
  /// e.g. deep inside the executor) enqueues at that priority. Session
  /// workers wrap OLTP-class queries in a kHigh guard.
  class PriorityGuard {
   public:
    explicit PriorityGuard(TaskPriority priority);
    ~PriorityGuard();
    PriorityGuard(const PriorityGuard&) = delete;
    PriorityGuard& operator=(const PriorityGuard&) = delete;

   private:
    TaskPriority previous_;
  };

  /// Times a helper abandoned a normal-priority task at a morsel boundary
  /// because high-priority work was waiting (fairness regression tests).
  uint64_t priority_yields() const {
    return priority_yields_.load(std::memory_order_relaxed);
  }

 private:
  struct Task;

  void HelperLoop();
  /// Claims and runs morsels of `task` until none remain (or a morsel
  /// threw, which forfeits the rest). A helper (`yieldable`) returns early
  /// — true — at a morsel boundary when `task` is normal-priority and
  /// unclaimed high-priority work is queued.
  bool RunMorsels(Task& task, bool yieldable);

  std::mutex mutex_;
  std::condition_variable wake_;
  /// One entry per helper slot, split by priority; helpers drain
  /// `high_queue_` first.
  std::deque<std::shared_ptr<Task>> queue_;
  std::deque<std::shared_ptr<Task>> high_queue_;
  std::vector<std::thread> helpers_;
  bool stop_ = false;
  std::atomic<size_t> max_workers_cap_{SIZE_MAX};
  /// Unclaimed entries of high_queue_, readable without mutex_ so a helper
  /// can poll it between morsels of a normal task.
  std::atomic<size_t> high_pending_{0};
  std::atomic<uint64_t> priority_yields_{0};
};

}  // namespace hytap

#endif  // HYTAP_COMMON_THREAD_POOL_H_
