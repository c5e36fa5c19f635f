#ifndef DAVIX_COMMON_THREAD_POOL_H_
#define DAVIX_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/blocking_queue.h"

namespace davix {

/// Fixed-size worker pool executing std::function tasks FIFO.
///
/// Used for the server-side request workers, for the client-side
/// parallel operations (multi-stream downloads, concurrent dispatch),
/// and as the per-Context dispatcher behind the parallel-for primitives
/// and the asynchronous read-ahead window.
///
/// Thread-safe: yes — Submit/Shutdown and the accessors may be called
/// from any thread; the queue provides the synchronisation.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (minimum 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Returns false if the pool is shutting down.
  bool Submit(std::function<void()> task);

  /// Stops accepting tasks, runs what is queued, joins all workers.
  /// Idempotent; also called by the destructor.
  void Shutdown();

  size_t num_threads() const { return workers_.size(); }

  /// Task accounting: accepted by Submit / finished executing. The
  /// difference is the queued-or-running backlog.
  uint64_t tasks_submitted() const {
    return submitted_.load(std::memory_order_relaxed);
  }
  uint64_t tasks_executed() const {
    return executed_.load(std::memory_order_relaxed);
  }

  /// Queued-or-running tasks right now — the admission-control signal
  /// the reactor server sheds load on. Both counters are monotonic, and
  /// executed trails submitted, so the subtraction cannot wrap.
  uint64_t backlog() const {
    uint64_t submitted = tasks_submitted();
    uint64_t executed = tasks_executed();
    return submitted > executed ? submitted - executed : 0;
  }

  /// Workers with nothing queued for them right now: how many extra
  /// executors a caller may fan work out to without that work queueing
  /// behind other tasks. Advisory — a racing Submit can take a worker
  /// the moment after this is read. A caller running on one of this
  /// pool's workers counts itself as busy.
  size_t idle_workers() const {
    uint64_t busy = backlog();
    return busy >= num_threads() ? 0 : num_threads() - busy;
  }

 private:
  void WorkerLoop();

  BlockingQueue<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> executed_{0};
};

/// Runs `fn(i)` for i in [0, n) across up to `parallelism` concurrent
/// executors drawn from `pool`, and waits for completion. The calling
/// thread always participates in the work, so the call makes progress
/// (and cannot deadlock) even when every pool worker is busy — including
/// when the caller itself runs on one of `pool`'s threads. `pool` may be
/// null, which degrades to a serial loop on the caller. Exceptions must
/// not escape fn.
void ParallelFor(ThreadPool* pool, size_t n, size_t parallelism,
                 const std::function<void(size_t)>& fn);

/// Like ParallelFor, but `fn` returning false requests cancellation:
/// indices no executor has claimed yet are skipped, while calls already
/// in flight run to completion. Returns true iff every index ran and
/// returned true — the first-error-cancellation primitive behind the
/// parallel vectored-read dispatcher.
bool ParallelForCancellable(ThreadPool* pool, size_t n, size_t parallelism,
                            const std::function<bool(size_t)>& fn);

}  // namespace davix

#endif  // DAVIX_COMMON_THREAD_POOL_H_
