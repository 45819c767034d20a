#include "util/thread_pool.h"

#include <algorithm>
#include <exception>

namespace certa::util {
namespace {

thread_local ThreadPool* lent_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  int count = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

int ThreadPool::HardwareThreads() {
  unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? static_cast<int>(hardware) : 1;
}

ThreadPool::Lend::Lend(ThreadPool* pool) : previous_(lent_pool) {
  lent_pool = pool;
}

ThreadPool::Lend::~Lend() { lent_pool = previous_; }

ThreadPool* ThreadPool::Current() { return lent_pool; }

void ThreadPool::DrainBatch(std::unique_lock<std::mutex>& lock,
                            const std::shared_ptr<Batch>& batch) {
  while (batch->next < batch->count) {
    size_t begin = batch->next;
    size_t end = std::min(batch->count, begin + batch->grain);
    batch->next = end;
    if (batch->next >= batch->count) {
      // Batch exhausted: stop offering it to other workers.
      auto it = std::find(queue_.begin(), queue_.end(), batch);
      if (it != queue_.end()) queue_.erase(it);
    }
    lock.unlock();
    (*batch->range_fn)(begin, end);
    lock.lock();
    batch->done += end - begin;
    if (batch->done == batch->count) batch->finished.notify_all();
  }
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_available_.wait(
        lock, [this] { return shutdown_ || !queue_.empty(); });
    if (shutdown_ && queue_.empty()) return;
    // Keep a shared_ptr so the batch outlives its removal from the
    // queue while this worker still runs one of its indices.
    std::shared_ptr<Batch> batch = queue_.front();
    DrainBatch(lock, batch);
  }
}

void ThreadPool::ParallelFor(size_t count,
                             const std::function<void(size_t)>& fn) {
  std::function<void(size_t, size_t)> range_fn = [&fn](size_t begin,
                                                       size_t end) {
    for (size_t i = begin; i < end; ++i) fn(i);
  };
  ParallelFor(count, 1, range_fn);
}

void ThreadPool::ParallelFor(
    size_t count, size_t grain,
    const std::function<void(size_t, size_t)>& range_fn) {
  if (count == 0) return;
  grain = std::max<size_t>(1, grain);
  if (count <= grain) {
    range_fn(0, count);
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->count = count;
  batch->grain = grain;
  batch->range_fn = &range_fn;
  std::unique_lock<std::mutex> lock(mutex_);
  queue_.push_back(batch);
  // Wake only as many workers as there are chunks the caller won't
  // drain itself: a blanket notify_all turns every small fan-out into a
  // thundering herd of wakeups that immediately find the queue empty —
  // pure context-switch cost, worst when threads outnumber cores.
  const size_t chunks = (count + grain - 1) / grain;
  const size_t helpers = std::min(workers_.size(), chunks - 1);
  if (helpers >= workers_.size()) {
    work_available_.notify_all();
  } else {
    for (size_t i = 0; i < helpers; ++i) work_available_.notify_one();
  }
  // The caller helps with its own batch, which guarantees progress even
  // when every worker is busy (including nested ParallelFor calls).
  DrainBatch(lock, batch);
  batch->finished.wait(lock, [&] { return batch->done == batch->count; });
}

void LentParallelFor(size_t count,
                     const std::function<void(size_t, size_t)>& range_fn) {
  if (count == 0) return;
  ThreadPool* pool = ThreadPool::Current();
  if (pool == nullptr || count < kMinLentParallelCount) {
    ThreadPool::Lend unlent(nullptr);
    range_fn(0, count);
    return;
  }
  const size_t ranges = 2 * static_cast<size_t>(pool->size());
  const size_t grain = (count + ranges - 1) / ranges;
  // Pool tasks must not throw (a worker has nowhere to put the
  // exception): keep the lowest failing range's, rethrow it at the end.
  std::mutex error_mutex;
  size_t error_begin = count;
  std::exception_ptr error;
  pool->ParallelFor(count, grain, [&](size_t begin, size_t end) {
    ThreadPool::Lend unlent(nullptr);
    try {
      range_fn(begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (begin < error_begin) {
        error_begin = begin;
        error = std::current_exception();
      }
    }
  });
  if (error) std::rethrow_exception(error);
}

}  // namespace certa::util
