#include "doduo/util/thread_pool.h"

#include <algorithm>
#include <exception>
#include <memory>

#include "doduo/util/check.h"
#include "doduo/util/env.h"

namespace doduo::util {

namespace {

// Set for the lifetime of every worker thread and inside every
// ScopedInline; ParallelFor consults it so a nested call from inside a task
// runs inline instead of blocking on the queue it is supposed to drain.
thread_local bool t_runs_inline = false;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mutex_);
    shutdown_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

bool ThreadPool::RunsInline() { return t_runs_inline; }

ThreadPool::ScopedInline::ScopedInline() : previous_(t_runs_inline) {
  t_runs_inline = true;
}

ThreadPool::ScopedInline::~ScopedInline() { t_runs_inline = previous_; }

void ThreadPool::Submit(std::function<void()> fn) {
  DODUO_CHECK(fn != nullptr);
  {
    MutexLock lock(&mutex_);
    // No shutdown check: tasks may legally submit follow-up work while the
    // destructor drains, and the submitting worker's own loop (still alive
    // by definition) picks it up before exiting.
    if (queued_ == ring_.size()) {
      // Full: double the ring, oldest task first. The only allocation of a
      // warmed-up pool's queue.
      std::vector<std::function<void()>> grown(
          std::max<size_t>(16, 2 * ring_.size()));
      for (size_t i = 0; i < queued_; ++i) {
        grown[i] = std::move(ring_[(head_ + i) % ring_.size()]);
      }
      ring_.swap(grown);
      head_ = 0;
    }
    ring_[(head_ + queued_) % ring_.size()] = std::move(fn);
    ++queued_;
  }
  work_available_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  t_runs_inline = true;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mutex_);
      while (!shutdown_ && queued_ == 0) work_available_.Wait(&mutex_);
      // Drain everything that was submitted before shutdown; exit only once
      // the queue is empty, so no accepted task is ever dropped.
      if (queued_ == 0) return;
      task = std::move(ring_[head_]);
      head_ = (head_ + 1) % ring_.size();
      --queued_;
    }
    task();
  }
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             FunctionRef<void(int64_t, int64_t)> fn) {
  if (begin >= end) return;
  const int64_t range = end - begin;
  const int64_t min_chunk = std::max<int64_t>(1, grain);
  if (num_threads() <= 1 || range <= min_chunk || RunsInline()) {
    fn(begin, end);
    return;
  }

  const int64_t num_chunks = std::min<int64_t>(
      num_threads(), (range + min_chunk - 1) / min_chunk);
  // Near-equal contiguous chunks: the first `remainder` chunks get one extra
  // iteration. Chunk boundaries depend only on (range, num_chunks), never on
  // scheduling, and fn's internal iteration order is untouched. The call's
  // completion count lives here and is guarded by the queue mutex, and the
  // caller waits on the pool's chunk_done_, so a call constructs no
  // condition variable (std::condition_variable_any allocates).
  struct Chunks {
    Chunks(ThreadPool* owner, FunctionRef<void(int64_t, int64_t)> body,
           int64_t first, int64_t range, int64_t num_chunks)
        : pool(owner),
          fn(body),
          begin(first),
          base(range / num_chunks),
          remainder(range % num_chunks),
          pending(num_chunks - 1) {}

    // Runs chunk c; false when it threw, with the exception in *error.
    bool Run(int64_t c, std::exception_ptr* error) const {
      const int64_t chunk_begin = begin + c * base + std::min(c, remainder);
      const int64_t chunk_end = chunk_begin + base + (c < remainder ? 1 : 0);
      try {
        fn(chunk_begin, chunk_end);
      } catch (...) {
        *error = std::current_exception();
        return false;
      }
      return true;
    }

    ThreadPool* const pool;
    const FunctionRef<void(int64_t, int64_t)> fn;
    const int64_t begin;
    const int64_t base;
    const int64_t remainder;
    int64_t pending;                 // guarded by pool->mutex_
    std::exception_ptr first_error;  // guarded by pool->mutex_
  } chunks(this, fn, begin, range, num_chunks);

  // Each queued task is one pointer and one index, small enough for
  // std::function to hold without allocating.
  for (int64_t c = 1; c < num_chunks; ++c) {
    Submit([&chunks, c] {
      std::exception_ptr error;
      const bool ok = chunks.Run(c, &error);
      // Notify while holding the lock: the waiter cannot return (and
      // destroy chunks) until this thread releases it.
      ThreadPool* const pool = chunks.pool;
      MutexLock lock(&pool->mutex_);
      if (!ok && !chunks.first_error) chunks.first_error = error;
      if (--chunks.pending == 0) pool->chunk_done_.NotifyAll();
    });
  }
  // The caller runs chunk 0 instead of idling while it waits.
  std::exception_ptr error;
  const bool ok = chunks.Run(0, &error);

  MutexLock lock(&mutex_);
  if (!ok && !chunks.first_error) chunks.first_error = error;
  while (chunks.pending != 0) chunk_done_.Wait(&mutex_);
  if (chunks.first_error) std::rethrow_exception(chunks.first_error);
}

namespace {

// Function-local and leaked so the annotated mutex (whose constructor is
// not constexpr) cannot be touched before it is initialized, whatever the
// cross-TU static-init order.
struct GlobalPool {
  Mutex mutex{"thread_pool.global"};
  std::unique_ptr<ThreadPool> pool DODUO_GUARDED_BY(mutex);
};

GlobalPool& GetGlobalPool() {
  static GlobalPool* global = new GlobalPool();  // never destroyed
  return *global;
}

int DefaultComputeThreads() {
  int64_t n = GetEnvInt("DODUO_NUM_THREADS", 0);
  if (n <= 0) {
    const unsigned hardware = std::thread::hardware_concurrency();
    n = hardware == 0 ? 1 : static_cast<int64_t>(hardware);
  }
  return static_cast<int>(std::clamp<int64_t>(n, 1, 16));
}

}  // namespace

ThreadPool* ComputePool() {
  GlobalPool& global = GetGlobalPool();
  MutexLock lock(&global.mutex);
  if (global.pool == nullptr) {
    global.pool = std::make_unique<ThreadPool>(DefaultComputeThreads());
  }
  return global.pool.get();
}

int ComputeThreads() { return ComputePool()->num_threads(); }

void SetComputeThreads(int num_threads) {
  std::unique_ptr<ThreadPool> replacement =
      std::make_unique<ThreadPool>(std::max(1, num_threads));
  GlobalPool& global = GetGlobalPool();
  {
    MutexLock lock(&global.mutex);
    global.pool.swap(replacement);
  }
  // `replacement` now owns the outgoing pool; letting it die here joins
  // its workers (~ThreadPool takes thread_pool.queue) with
  // thread_pool.global already released, keeping the lock hierarchy flat
  // (DESIGN §13: no lock is held while acquiring another).
}

}  // namespace doduo::util
