#ifndef DODUO_UTIL_THREAD_POOL_H_
#define DODUO_UTIL_THREAD_POOL_H_

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "doduo/util/function_ref.h"
#include "doduo/util/mutex.h"
#include "doduo/util/thread_annotations.h"

namespace doduo::util {

/// A fixed-size thread pool with a single FIFO queue (no work stealing).
/// Workers drain the queue until shutdown; the destructor completes all
/// pending work before joining, so submitted tasks are never dropped.
///
/// The pool is the substrate for data-parallel kernels (see nn/ops.cc) and
/// batched annotation (core/annotator.cc). Determinism contract: ParallelFor
/// only decides *which thread* runs a chunk, never the iteration order
/// inside a chunk, so callers that keep per-element work order fixed get
/// bit-identical results at any thread count.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  /// Completes all pending and running tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task. Safe to call from worker threads (nested submits do
  /// not deadlock: workers never block on the queue while holding work).
  void Submit(std::function<void()> fn);

  /// Splits [begin, end) into at most num_threads() contiguous chunks of at
  /// least `grain` iterations and runs `fn(chunk_begin, chunk_end)` on the
  /// pool; the calling thread executes the first chunk itself and then
  /// waits. Rethrows the first exception thrown by any chunk (all chunks
  /// still run to completion). `fn` is borrowed, not copied, and a warmed-up
  /// pool queues the chunks without allocating, so a sharded kernel makes
  /// no heap allocation (DESIGN §9).
  ///
  /// Runs inline — sequentially on the calling thread — when the range is
  /// empty or fits one grain, when the pool has a single thread, and when
  /// RunsInline() (so nested ParallelFor calls are safe and can never
  /// deadlock).
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   FunctionRef<void(int64_t, int64_t)> fn);

  /// True when ParallelFor on the calling thread runs inline: the thread is
  /// a pool worker, or it is inside a ScopedInline.
  static bool RunsInline();

  /// While alive, ParallelFor on the constructing thread runs inline,
  /// exactly as it does inside a pool worker. A thread that drives one
  /// model replica of a fan-out holds one (core::ReplicaPool::ScopedUse),
  /// so its kernels stay serial instead of sharding onto workers that are
  /// busy with sibling replicas: the fan-out is the one level of
  /// parallelism. Scopes nest; each restores the state it found.
  class ScopedInline {
   public:
    ScopedInline();
    ~ScopedInline();

    ScopedInline(const ScopedInline&) = delete;
    ScopedInline& operator=(const ScopedInline&) = delete;

   private:
    const bool previous_;
  };

 private:
  void WorkerLoop();

  Mutex mutex_{"thread_pool.queue"};
  CondVar work_available_;
  // Signalled (to all waiters) when a ParallelFor call's last queued chunk
  // finishes; each caller rechecks its own count under mutex_.
  CondVar chunk_done_;
  // FIFO ring over ring_: queued_ tasks from index head_, wrapping. It
  // grows (doubling) only when full, so a warmed-up queue never allocates;
  // a deque would allocate a node every few pushes.
  std::vector<std::function<void()>> ring_ DODUO_GUARDED_BY(mutex_);
  size_t head_ DODUO_GUARDED_BY(mutex_) = 0;
  size_t queued_ DODUO_GUARDED_BY(mutex_) = 0;
  bool shutdown_ DODUO_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;  // written only by the constructor
};

/// The process-wide compute pool used by the parallel kernels and the
/// batched Annotator API. Lazily constructed on first use with
/// DODUO_NUM_THREADS workers (default: hardware concurrency, capped at 16).
ThreadPool* ComputePool();

/// Current size of the global compute pool (>= 1).
int ComputeThreads();

/// Rebuilds the global compute pool with `num_threads` workers. A control
/// knob for tests, benchmarks, and the CLI `--threads` flag; must not be
/// called while kernels are executing on the pool.
void SetComputeThreads(int num_threads);

}  // namespace doduo::util

#endif  // DODUO_UTIL_THREAD_POOL_H_
