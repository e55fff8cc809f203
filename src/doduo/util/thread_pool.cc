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
    queue_.push_back(std::move(fn));
  }
  work_available_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  t_runs_inline = true;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mutex_);
      while (!shutdown_ && queue_.empty()) work_available_.Wait(&mutex_);
      // Drain everything that was submitted before shutdown; exit only once
      // the queue is empty, so no accepted task is ever dropped.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             const std::function<void(int64_t, int64_t)>& fn) {
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
  // scheduling, and fn's internal iteration order is untouched.
  const int64_t base = range / num_chunks;
  const int64_t remainder = range % num_chunks;

  struct Sync {
    Mutex mutex{"thread_pool.parallel_for"};
    CondVar all_done;
    int64_t pending DODUO_GUARDED_BY(mutex);
    std::exception_ptr first_error DODUO_GUARDED_BY(mutex);
  } sync;
  {
    MutexLock lock(&sync.mutex);
    sync.pending = num_chunks - 1;
  }

  auto run_chunk = [&fn, &sync](int64_t chunk_begin, int64_t chunk_end) {
    try {
      fn(chunk_begin, chunk_end);
    } catch (...) {
      MutexLock lock(&sync.mutex);
      if (!sync.first_error) sync.first_error = std::current_exception();
    }
  };

  int64_t cursor = begin;
  int64_t caller_begin = 0;
  int64_t caller_end = 0;
  for (int64_t c = 0; c < num_chunks; ++c) {
    const int64_t chunk = base + (c < remainder ? 1 : 0);
    const int64_t chunk_begin = cursor;
    const int64_t chunk_end = cursor + chunk;
    cursor = chunk_end;
    if (c == 0) {
      // The caller works too instead of idling while it waits.
      caller_begin = chunk_begin;
      caller_end = chunk_end;
      continue;
    }
    Submit([&sync, &run_chunk, chunk_begin, chunk_end] {
      run_chunk(chunk_begin, chunk_end);
      // Notify while holding the lock: the waiter cannot return (and
      // destroy sync) until this thread releases it, so the condvar is
      // alive for the whole NotifyOne call.
      MutexLock lock(&sync.mutex);
      if (--sync.pending == 0) sync.all_done.NotifyOne();
    });
  }
  DODUO_CHECK_EQ(cursor, end);
  run_chunk(caller_begin, caller_end);

  MutexLock lock(&sync.mutex);
  while (sync.pending != 0) sync.all_done.Wait(&sync.mutex);
  if (sync.first_error) std::rethrow_exception(sync.first_error);
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
