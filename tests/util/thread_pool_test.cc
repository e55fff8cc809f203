// ThreadPool unit tests: task completion, ParallelFor coverage and
// exception propagation, nested-call safety, and clean shutdown while work
// is still queued.

#include "doduo/util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

namespace doduo::util {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor drains the queue
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, ClampsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran.store(true); });
  // Give the single worker a moment; the destructor drains regardless.
  while (!ran.load()) std::this_thread::yield();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  for (int64_t range : {0, 1, 3, 7, 64, 1000, 1001}) {
    std::vector<std::atomic<int>> hits(static_cast<size_t>(range));
    pool.ParallelFor(0, range, /*grain=*/1,
                     [&hits](int64_t begin, int64_t end) {
                       for (int64_t i = begin; i < end; ++i) {
                         hits[static_cast<size_t>(i)].fetch_add(1);
                       }
                     });
    for (int64_t i = 0; i < range; ++i) {
      ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForEmptyAndReversedRangesAreNoOps) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(5, 5, 1, [&calls](int64_t, int64_t) { ++calls; });
  pool.ParallelFor(7, 3, 1, [&calls](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, ParallelForRespectsGrain) {
  ThreadPool pool(8);
  // range 10 with grain 5 → at most 2 chunks, each at least 5 long.
  std::atomic<int> chunks{0};
  pool.ParallelFor(0, 10, /*grain=*/5,
                   [&chunks](int64_t begin, int64_t end) {
                     EXPECT_GE(end - begin, 5);
                     chunks.fetch_add(1);
                   });
  EXPECT_LE(chunks.load(), 2);
}

TEST(ThreadPoolTest, ParallelForPropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 100, 1,
                       [](int64_t begin, int64_t) {
                         if (begin >= 0) throw std::runtime_error("boom");
                       }),
      std::runtime_error);

  // The pool survives and stays usable after a throwing ParallelFor.
  std::atomic<int64_t> total{0};
  pool.ParallelFor(0, 100, 1, [&total](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) total.fetch_add(i);
  });
  EXPECT_EQ(total.load(), 99 * 100 / 2);
}

TEST(ThreadPoolTest, ParallelForExceptionFromSingleChunk) {
  ThreadPool pool(4);
  // Only one chunk throws; the others complete and the error still
  // surfaces on the calling thread.
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.ParallelFor(0, 4, 1,
                                [&completed](int64_t begin, int64_t) {
                                  if (begin == 2) {
                                    throw std::runtime_error("chunk 2");
                                  }
                                  completed.fetch_add(1);
                                }),
               std::runtime_error);
  EXPECT_EQ(completed.load(), 3);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  // A nested ParallelFor issued from inside a chunk must not deadlock; it
  // runs inline on the worker.
  pool.ParallelFor(0, 8, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      pool.ParallelFor(0, 10, 1, [&total](int64_t inner_begin,
                                          int64_t inner_end) {
        for (int64_t j = inner_begin; j < inner_end; ++j) total.fetch_add(1);
      });
    }
  });
  EXPECT_EQ(total.load(), 8 * 10);
}

TEST(ThreadPoolTest, ScopedInlineRunsEveryChunkOnTheCallingThread) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  ASSERT_FALSE(ThreadPool::RunsInline());
  ThreadPool::ScopedInline serial;
  EXPECT_TRUE(ThreadPool::RunsInline());
  std::vector<std::thread::id> ran_on;
  std::vector<std::pair<int64_t, int64_t>> chunks;
  // Without the scope this range splits into 4 chunks over the workers.
  pool.ParallelFor(0, 1000, 1, [&](int64_t begin, int64_t end) {
    ran_on.push_back(std::this_thread::get_id());
    chunks.emplace_back(begin, end);
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], std::make_pair(int64_t{0}, int64_t{1000}));
  EXPECT_EQ(ran_on[0], caller);
}

TEST(ThreadPoolTest, ScopedInlineNestsAndRestores) {
  ASSERT_FALSE(ThreadPool::RunsInline());
  {
    ThreadPool::ScopedInline outer;
    {
      ThreadPool::ScopedInline inner;
      EXPECT_TRUE(ThreadPool::RunsInline());
    }
    // The inner scope restores what it found: still inline.
    EXPECT_TRUE(ThreadPool::RunsInline());
  }
  EXPECT_FALSE(ThreadPool::RunsInline());

  // Inside a worker the state is inline already, and a scope there leaves
  // it inline when it closes.
  std::atomic<bool> inline_after{false};
  {
    ThreadPool pool(2);
    pool.Submit([&inline_after] {
      { ThreadPool::ScopedInline scope; }
      inline_after.store(ThreadPool::RunsInline());
    });
  }  // destructor drains the queue
  EXPECT_TRUE(inline_after.load());
}

TEST(ThreadPoolTest, SubmitFromWorkerIsSafe) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&pool, &counter] {
        pool.Submit([&counter] { counter.fetch_add(1); });
      });
    }
  }
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, ShutdownCompletesPendingWork) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&done] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        done.fetch_add(1);
      });
    }
    // Destroy immediately: most tasks are still queued.
  }
  EXPECT_EQ(done.load(), 50);
}

TEST(ComputePoolTest, SetComputeThreadsResizesGlobalPool) {
  SetComputeThreads(3);
  EXPECT_EQ(ComputeThreads(), 3);
  EXPECT_EQ(ComputePool()->num_threads(), 3);
  SetComputeThreads(1);
  EXPECT_EQ(ComputeThreads(), 1);
}

}  // namespace
}  // namespace doduo::util
