#ifndef CERTA_UTIL_THREAD_POOL_H_
#define CERTA_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace certa::util {

/// Fixed-size worker pool with a shared work queue, built for the
/// scoring engine's batch fan-out. Work is submitted as index ranges
/// (ParallelFor); each index is claimed exactly once, so tasks that
/// write to index-addressed slots produce deterministic, ordered
/// results regardless of which worker ran them or in what order.
///
/// The calling thread participates in its own batch while waiting, so
/// nested ParallelFor calls (an explainer parallelized per pair whose
/// scoring engine fans out again) cannot deadlock: a waiting caller
/// always drains the remaining indices of its batch itself.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  int size() const { return static_cast<int>(workers_.size()); }

  /// Runs fn(0) .. fn(count - 1), each exactly once, and blocks until
  /// all have completed. `fn` must be safe to invoke concurrently from
  /// multiple threads and must not throw.
  void ParallelFor(size_t count, const std::function<void(size_t)>& fn);

  /// Chunked variant: runs range_fn(begin, end) over a partition of
  /// [0, count) into contiguous chunks of `grain` indices (the last
  /// chunk may be shorter). A worker claims a whole chunk per queue
  /// visit, so the per-index synchronization cost of the index-at-a-
  /// time overload is amortized over `grain` items — the difference
  /// between the pool helping and the pool being pure overhead for
  /// cheap loop bodies. Chunk boundaries depend only on (count, grain),
  /// never on the worker count, so index-addressed output slots stay
  /// deterministic.
  void ParallelFor(size_t count, size_t grain,
                   const std::function<void(size_t, size_t)>& range_fn);

  /// Sensible default worker count for this machine (>= 1).
  static int HardwareThreads();

  /// Lends `pool` to the calling thread for this object's lifetime, so
  /// code deeper in the call stack can fan its own work out over it
  /// without a pool parameter on every interface in between: the
  /// scoring engine lends its pool around each base-model call, and the
  /// model's ScoreBatch picks it up through any decorators that call
  /// their base on the same thread. Scopes nest and restore the outer
  /// lend on exit; nullptr lends nothing for the scope.
  class Lend {
   public:
    explicit Lend(ThreadPool* pool);
    ~Lend();
    Lend(const Lend&) = delete;
    Lend& operator=(const Lend&) = delete;

   private:
    ThreadPool* previous_;
  };

  /// The pool lent to the calling thread, or nullptr. Pool workers start
  /// with none lent.
  static ThreadPool* Current();

 private:
  /// One ParallelFor invocation: index ranges are claimed `grain` at a
  /// time via `next`, and the batch is complete when `done` reaches
  /// `count`.
  struct Batch {
    size_t count = 0;
    size_t grain = 1;
    const std::function<void(size_t, size_t)>* range_fn = nullptr;
    size_t next = 0;  // guarded by pool mutex
    size_t done = 0;  // guarded by pool mutex
    std::condition_variable finished;
  };

  /// Claims and runs indices of `batch` until none remain. Returns with
  /// the pool mutex held (as on entry).
  void DrainBatch(std::unique_lock<std::mutex>& lock,
                  const std::shared_ptr<Batch>& batch);

  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::vector<std::shared_ptr<Batch>> queue_;  // batches with open indices
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

/// Loops shorter than this run inline even when a pool is lent: below
/// it, waking the workers costs more than the work they would share.
inline constexpr size_t kMinLentParallelCount = 8;

/// Runs range_fn over a partition of [0, count) into contiguous ranges,
/// spread over the pool lent to the calling thread (ThreadPool::Lend):
/// about two ranges per worker, so the split follows the batch size and
/// the pool size rather than a fixed grain. Runs range_fn(0, count)
/// inline when no pool is lent or count < kMinLentParallelCount. Inside
/// a range no pool is lent, on whichever thread runs it, so pooled work
/// never fans out again.
///
/// range_fn may throw. A range stops at its first exception, every other
/// range still runs to its end, and the exception of the lowest failing
/// range is rethrown on the calling thread — the same exception an
/// in-order serial loop would have thrown first, whenever failures
/// depend only on the index.
void LentParallelFor(size_t count,
                     const std::function<void(size_t, size_t)>& range_fn);

}  // namespace certa::util

#endif  // CERTA_UTIL_THREAD_POOL_H_
