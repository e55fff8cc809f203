// Deterministic unit tests for the dynamic batcher (DESIGN §12): the
// BatchQueue FIFO is driven step by step, DynamicBatcher runs in
// manual_drain mode with an injected clock, and the threaded tests pin the
// work-conserving policy by blocking the worker inside a callback — no
// real sockets, no sleeps; the timed waits below only bound a failure.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "doduo/serve/batcher.h"
#include "doduo/util/metrics.h"
#include "doduo/util/mutex.h"
#include "doduo/util/status.h"
#include "gtest/gtest.h"
#include "serve/serve_test_util.h"

namespace doduo::serve {
namespace {

using Outcomes = std::vector<core::ColumnOutcome>;

PendingRequest Request(uint64_t id) {
  PendingRequest request;
  request.id = id;
  request.table = testing::MakeTable(static_cast<int>(id));
  return request;
}

std::vector<uint64_t> Ids(const std::vector<PendingRequest>& batch) {
  std::vector<uint64_t> ids;
  ids.reserve(batch.size());
  for (const PendingRequest& request : batch) ids.push_back(request.id);
  return ids;
}

/// A one-shot latch: Wait blocks until some thread calls Signal.
class Gate {
 public:
  void Signal() {
    util::MutexLock lock(&mu_);
    open_ = true;
    cv_.NotifyAll();
  }
  void Wait() {
    util::MutexLock lock(&mu_);
    while (!open_) cv_.Wait(&mu_);
  }

 private:
  util::Mutex mu_{"test.gate"};
  util::CondVar cv_;
  bool open_ = false;
};

/// Callbacks seen per request id, and how many carried the expected
/// outcomes. Safe to call from batcher workers.
class Completions {
 public:
  void Record(uint64_t id, bool correct) {
    util::MutexLock lock(&mu_);
    ++calls_[id];
    correct_ += correct ? 1 : 0;
    ++total_;
    cv_.NotifyAll();
  }

  /// Blocks until `n` callbacks have fired; false after 60 s, so a batcher
  /// that never answers fails the test instead of hanging it.
  bool WaitForTotal(int n) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    util::MutexLock lock(&mu_);
    while (total_ < n) {
      const auto left = std::chrono::duration_cast<std::chrono::microseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return false;
      (void)cv_.WaitFor(&mu_, left.count());
    }
    return true;
  }

  int total() {
    util::MutexLock lock(&mu_);
    return total_;
  }
  int correct() {
    util::MutexLock lock(&mu_);
    return correct_;
  }
  /// True when every id in [0, n) got exactly one callback and no other id
  /// got any.
  bool ExactlyOnceEach(uint64_t n) {
    util::MutexLock lock(&mu_);
    if (calls_.size() != n) return false;
    for (uint64_t id = 0; id < n; ++id) {
      auto it = calls_.find(id);
      if (it == calls_.end() || it->second != 1) return false;
    }
    return true;
  }

 private:
  util::Mutex mu_{"test.completions"};
  util::CondVar cv_;
  std::map<uint64_t, int> calls_;
  int correct_ = 0;
  int total_ = 0;
};

// -- BatchQueue ---------------------------------------------------------------

TEST(BatchQueueTest, FlushesWhenBatchFills) {
  BatchQueue queue(/*max_batch_size=*/3, /*max_queue_depth=*/16);
  ASSERT_TRUE(queue.Enqueue(Request(1), 10).ok());
  ASSERT_TRUE(queue.Enqueue(Request(2), 11).ok());
  ASSERT_TRUE(queue.Enqueue(Request(3), 12).ok());
  const auto batch = queue.CutBatch();
  EXPECT_EQ(Ids(batch), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BatchQueueTest, CutTakesPartialBatchAtOnceAndKeepsStamps) {
  BatchQueue queue(/*max_batch_size=*/8, /*max_queue_depth=*/16);
  ASSERT_TRUE(queue.Enqueue(Request(1), 100).ok());
  ASSERT_TRUE(queue.Enqueue(Request(2), 600).ok());
  // Two of eight: no fill level or age gates the cut.
  const auto batch = queue.CutBatch();
  EXPECT_EQ(Ids(batch), (std::vector<uint64_t>{1, 2}));
  // The enqueue stamps travel with the batch for the wait histograms.
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].enqueue_us, 100);
  EXPECT_EQ(batch[1].enqueue_us, 600);
  EXPECT_TRUE(queue.empty());
}

TEST(BatchQueueTest, CutBatchKeepsFifoOrderAndCapsAtBatchSize) {
  BatchQueue queue(/*max_batch_size=*/2, /*max_queue_depth=*/16);
  for (uint64_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(queue.Enqueue(Request(id), static_cast<int64_t>(id)).ok());
  }
  EXPECT_EQ(Ids(queue.CutBatch()), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(Ids(queue.CutBatch()), (std::vector<uint64_t>{3, 4}));
  EXPECT_EQ(Ids(queue.CutBatch()), (std::vector<uint64_t>{5}));
  EXPECT_TRUE(queue.CutBatch().empty());
}

TEST(BatchQueueTest, RejectsWhenFullAndLeavesRequestIntact) {
  BatchQueue queue(/*max_batch_size=*/4, /*max_queue_depth=*/2);
  ASSERT_TRUE(queue.Enqueue(Request(1), 0).ok());
  ASSERT_TRUE(queue.Enqueue(Request(2), 0).ok());
  PendingRequest rejected = Request(3);
  bool callback_alive = false;
  rejected.callback = [&callback_alive](util::Result<Outcomes>) {
    callback_alive = true;
  };
  const util::Status status = queue.Enqueue(std::move(rejected), 0);
  EXPECT_EQ(status.code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(queue.size(), 2u);
  // On rejection the request must NOT have been moved from: the caller
  // still owns the callback and can deliver the backpressure error.
  ASSERT_TRUE(rejected.callback != nullptr);
  rejected.callback(status);
  EXPECT_TRUE(callback_alive);
  // Draining frees capacity again.
  EXPECT_EQ(queue.CutBatch().size(), 2u);
  EXPECT_TRUE(queue.Enqueue(Request(4), 1).ok());
}

TEST(BatchQueueTest, CutOnEmptyQueueReturnsNothing) {
  BatchQueue queue(/*max_batch_size=*/8, /*max_queue_depth=*/16);
  EXPECT_TRUE(queue.CutBatch().empty());
  ASSERT_TRUE(queue.Enqueue(Request(1), 0).ok());
  EXPECT_FALSE(queue.empty());
  EXPECT_EQ(Ids(queue.CutBatch()), (std::vector<uint64_t>{1}));
  EXPECT_TRUE(queue.CutBatch().empty());
}

// -- DynamicBatcher (manual drain, injected clock) ---------------------------

class DynamicBatcherTest : public ::testing::Test {
 protected:
  DynamicBatcherTest() : pool_(model_.MakePool(1)) {}

  BatcherOptions Options(int max_batch, int depth) {
    BatcherOptions options;
    options.max_batch_size = max_batch;
    options.max_queue_depth = depth;
    options.manual_drain = true;
    options.clock_us = [this] { return now_us_; };
    return options;
  }

  testing::TestModel model_;
  std::unique_ptr<core::ReplicaPool> pool_;
  int64_t now_us_ = 0;
};

TEST_F(DynamicBatcherTest, DrainMatchesSequentialAnnotatorExactly) {
  DynamicBatcher batcher(pool_.get(), Options(4, 16));
  std::vector<uint64_t> completed;
  std::vector<util::Result<Outcomes>> results;
  for (uint64_t id = 0; id < 4; ++id) {
    batcher.Submit(id, testing::MakeTable(static_cast<int>(id)),
                   /*sanitize=*/true, /*abstain_below=*/0.0,
                   [&, id](util::Result<Outcomes> result) {
                     completed.push_back(id);
                     results.push_back(std::move(result));
                   });
  }
  EXPECT_EQ(batcher.queue_depth(), 4u);
  ASSERT_EQ(batcher.DrainOnce(), 4u);
  ASSERT_EQ(completed, (std::vector<uint64_t>{0, 1, 2, 3}));  // FIFO
  core::Annotator annotator = model_.MakeAnnotator();
  for (uint64_t id = 0; id < 4; ++id) {
    ASSERT_TRUE(results[id].ok()) << results[id].status().ToString();
    const Outcomes expected = annotator.AnnotateTypesRobust(
        testing::MakeTable(static_cast<int>(id)));
    ASSERT_FALSE(expected.empty());
    // Batched-through-the-server output must be byte-identical to the
    // sequential path (same weights, bit-deterministic kernels).
    EXPECT_TRUE(testing::SameOutcomes(results[id].value(), expected))
        << "request " << id;
  }
}

TEST_F(DynamicBatcherTest, WaitHistogramsReadInjectedClockStamps) {
  DynamicBatcher batcher(pool_.get(), Options(8, 16));
  util::Histogram* queue_wait = util::GetHistogram("serve.queue_wait_us");
  util::Histogram* assembly = util::GetHistogram("serve.batch_assembly_us");
  const uint64_t waits_before = queue_wait->count();
  const uint64_t wait_sum_before = queue_wait->sum_micros();
  const uint64_t assembly_sum_before = assembly->sum_micros();
  int completions = 0;
  auto count = [&](util::Result<Outcomes> result) {
    EXPECT_TRUE(result.ok());
    ++completions;
  };
  now_us_ = 1000;
  batcher.Submit(1, testing::MakeTable(1), true, 0.0, count);
  now_us_ = 1400;
  batcher.Submit(2, testing::MakeTable(2), true, 0.0, count);
  now_us_ = 1600;  // the cut: waits of 600 and 200 µs
  EXPECT_EQ(batcher.DrainOnce(), 2u);
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(queue_wait->count() - waits_before, 2u);
  EXPECT_EQ(queue_wait->sum_micros() - wait_sum_before, 800u);
  // Assembly is the oldest request's wait at the cut.
  EXPECT_EQ(assembly->sum_micros() - assembly_sum_before, 600u);
}

TEST_F(DynamicBatcherTest, RejectsWithResourceExhaustedWhenQueueFull) {
  DynamicBatcher batcher(pool_.get(), Options(8, /*depth=*/2));
  int ok_callbacks = 0;
  int rejections = 0;
  for (uint64_t id = 0; id < 5; ++id) {
    batcher.Submit(id, testing::MakeTable(static_cast<int>(id)),
                   /*sanitize=*/true, /*abstain_below=*/0.0,
                   [&](util::Result<Outcomes> result) {
                     if (result.ok()) {
                       ++ok_callbacks;
                     } else {
                       EXPECT_EQ(result.status().code(),
                                 util::StatusCode::kResourceExhausted);
                       ++rejections;
                     }
                   });
  }
  // Backpressure is synchronous: the three overflow submits were already
  // answered, the two accepted ones complete on drain.
  EXPECT_EQ(rejections, 3);
  EXPECT_EQ(ok_callbacks, 0);
  EXPECT_EQ(batcher.DrainOnce(), 2u);
  EXPECT_EQ(ok_callbacks, 2);
  EXPECT_EQ(rejections, 3);
}

TEST_F(DynamicBatcherTest, ZeroColumnTableGetsEmptyOutcomesBesideNeighbours) {
  DynamicBatcher batcher(pool_.get(), Options(4, 16));
  std::map<uint64_t, util::Result<Outcomes>> results;
  auto record = [&](uint64_t id) {
    return [&, id](util::Result<Outcomes> result) {
      results.emplace(id, std::move(result));
    };
  };
  batcher.Submit(0, testing::MakeTable(0), true, 0.0, record(0));
  batcher.Submit(1, testing::MakeEmptyTable(), true, 0.0, record(1));
  batcher.Submit(2, testing::MakeTable(2), true, 0.0, record(2));
  EXPECT_EQ(batcher.DrainOnce(), 3u);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& [id, result] : results) {
    ASSERT_TRUE(result.ok()) << "id " << id << ": "
                             << result.status().ToString();
  }
  // A zero-column table is not an error: it gets zero outcomes, and its
  // co-batched neighbours match the single-table reference exactly.
  EXPECT_TRUE(results.at(1).value().empty());
  core::Annotator annotator = model_.MakeAnnotator();
  for (const uint64_t id : {0u, 2u}) {
    EXPECT_TRUE(testing::SameOutcomes(
        results.at(id).value(),
        annotator.AnnotateTypesRobust(
            testing::MakeTable(static_cast<int>(id)))))
        << "request " << id;
  }
}

TEST_F(DynamicBatcherTest, StopDrainsEveryAcceptedRequest) {
  DynamicBatcher batcher(pool_.get(), Options(4, 64));
  int completions = 0;
  for (uint64_t id = 0; id < 10; ++id) {
    batcher.Submit(id, testing::MakeTable(static_cast<int>(id)),
                   /*sanitize=*/true, /*abstain_below=*/0.0,
                   [&](util::Result<Outcomes> result) {
                     EXPECT_TRUE(result.ok());
                     ++completions;
                   });
  }
  batcher.Stop();  // exactly one callback per accepted request, no losses
  EXPECT_EQ(completions, 10);
  // After Stop, new submits are rejected rather than silently dropped.
  int late_status_ok = -1;
  batcher.Submit(99, testing::MakeTable(0), /*sanitize=*/true,
                 /*abstain_below=*/0.0, [&](util::Result<Outcomes> result) {
                   late_status_ok = result.ok() ? 1 : 0;
                   EXPECT_EQ(result.status().code(),
                             util::StatusCode::kResourceExhausted);
                 });
  EXPECT_EQ(late_status_ok, 0);
}

TEST_F(DynamicBatcherTest, MixedBatchKeepsPerRequestOptionsApart) {
  // One batch carrying every option mix: sanitized, unsanitized, and a
  // per-request abstention threshold. Each must match its own scalar-path
  // ground truth — co-batching changes nothing.
  DynamicBatcher batcher(pool_.get(), Options(8, 16));
  table::Table dirty("dirty");
  dirty.AddColumn({"void", {"", "null", "-"}});
  dirty.AddColumn({"a", {"alpha", "beta"}});

  // Keyed by request id: groups fire in (sanitized, raw) order, not
  // submission order, and this test is about routing, not ordering.
  std::map<uint64_t, util::Result<Outcomes>> results;
  auto record = [&](uint64_t id) {
    return [&, id](util::Result<Outcomes> result) {
      results.emplace(id, std::move(result));
    };
  };
  batcher.Submit(0, testing::MakeTable(0), /*sanitize=*/true,
                 /*abstain_below=*/0.0, record(0));
  batcher.Submit(1, dirty, /*sanitize=*/true, /*abstain_below=*/0.0,
                 record(1));
  batcher.Submit(2, dirty, /*sanitize=*/false, /*abstain_below=*/0.0,
                 record(2));
  batcher.Submit(3, testing::MakeTable(0), /*sanitize=*/true,
                 /*abstain_below=*/1.01, record(3));
  EXPECT_EQ(batcher.DrainOnce(), 4u);

  ASSERT_EQ(results.size(), 4u);
  for (const auto& [id, result] : results) {
    ASSERT_TRUE(result.ok()) << "id " << id << ": "
                             << result.status().ToString();
  }
  core::Annotator annotator = model_.MakeAnnotator();
  core::AnnotateOptions raw;
  raw.sanitize = false;
  EXPECT_TRUE(testing::SameOutcomes(
      results.at(0).value(),
      annotator.AnnotateTypesRobust(testing::MakeTable(0))));
  EXPECT_TRUE(testing::SameOutcomes(results.at(1).value(),
                                    annotator.AnnotateTypesRobust(dirty)));
  EXPECT_TRUE(testing::SameOutcomes(results.at(2).value(),
                                    annotator.AnnotateTypesRobust(dirty, raw)));
  // Sanitized: the mostly-null column is skipped, the clean one annotated.
  ASSERT_EQ(results.at(1).value().size(), 2u);
  EXPECT_EQ(results.at(1).value()[0].skipped_reason, "mostly_null");
  EXPECT_TRUE(results.at(1).value()[1].annotated());
  // Unsanitized: no skip classification, both columns annotated as-is.
  ASSERT_EQ(results.at(2).value().size(), 2u);
  EXPECT_TRUE(results.at(2).value()[0].annotated());
  EXPECT_TRUE(results.at(2).value()[1].annotated());
  // Threshold above 1.0: every annotatable column abstains, and the
  // threshold applied to THIS request did not leak onto its co-batched
  // neighbour with the same table (request 0, checked above).
  for (const core::ColumnOutcome& outcome : results.at(3).value()) {
    EXPECT_TRUE(outcome.abstained);
    EXPECT_TRUE(outcome.labels.empty());
  }
}

TEST_F(DynamicBatcherTest, ThreadedWorkersDrainWithRealClock) {
  // The one non-manual case in this file: worker threads with the default
  // steady clock, validated purely through completion counting (Stop is
  // the barrier — still no test-side sleeps or sockets).
  auto pool = model_.MakePool(2);
  BatcherOptions options;
  options.max_batch_size = 4;
  options.max_queue_depth = 64;
  core::Annotator annotator = model_.MakeAnnotator();
  std::vector<Outcomes> expected;
  for (int v = 0; v < 4; ++v) {
    expected.push_back(annotator.AnnotateTypesRobust(testing::MakeTable(v)));
  }
  std::atomic<int> correct{0};
  {
    DynamicBatcher batcher(pool.get(), options);
    for (uint64_t id = 0; id < 32; ++id) {
      batcher.Submit(id, testing::MakeTable(static_cast<int>(id)),
                     /*sanitize=*/true, /*abstain_below=*/0.0,
                     [&, id](util::Result<Outcomes> result) {
                       EXPECT_TRUE(result.ok())
                           << result.status().ToString();
                       if (result.ok() &&
                           testing::SameOutcomes(result.value(),
                                                 expected[id & 3])) {
                         correct.fetch_add(1);
                       }
                     });
    }
  }  // destructor == Stop(): joins workers after the queue drains
  EXPECT_EQ(correct.load(), 32);
}

// -- Work-conserving policy (threaded workers) -------------------------------

class WorkConservingTest : public ::testing::Test {
 protected:
  WorkConservingTest() : pool_(model_.MakePool(1)) {
    core::Annotator annotator = model_.MakeAnnotator();
    for (int v = 0; v < 4; ++v) {
      expected_.push_back(
          annotator.AnnotateTypesRobust(testing::MakeTable(v)));
    }
  }

  /// One worker thread, a clock frozen at 1000 µs: nothing in the policy
  /// may wait on time.
  BatcherOptions Options() const {
    BatcherOptions options;
    options.max_batch_size = 8;
    options.max_queue_depth = 4096;
    options.clock_us = [] { return int64_t{1000}; };
    return options;
  }

  /// Submits request `id`, recording its callback in `done`.
  void Submit(DynamicBatcher* batcher, uint64_t id, Completions* done) {
    batcher->Submit(id, testing::MakeTable(static_cast<int>(id)), true, 0.0,
                    [this, id, done](util::Result<Outcomes> result) {
                      done->Record(id, result.ok() &&
                                           testing::SameOutcomes(
                                               result.value(),
                                               expected_[id & 3]));
                    });
  }

  /// Submits request 0 and returns once the worker is inside its
  /// callback, where it stays until `release` is signalled.
  void BlockWorker(DynamicBatcher* batcher, Gate* entered, Gate* release,
                   Completions* done) {
    batcher->Submit(0, testing::MakeTable(0), true, 0.0,
                    [this, entered, release, done](
                        util::Result<Outcomes> result) {
                      entered->Signal();
                      release->Wait();
                      done->Record(0, result.ok() &&
                                          testing::SameOutcomes(
                                              result.value(), expected_[0]));
                    });
    entered->Wait();
  }

  testing::TestModel model_;
  std::unique_ptr<core::ReplicaPool> pool_;
  std::vector<Outcomes> expected_;
};

TEST_F(WorkConservingTest, IdleWorkerAnswersAtOnceWithFrozenClock) {
  DynamicBatcher batcher(pool_.get(), Options());
  Completions done;
  Submit(&batcher, 1, &done);
  // One request of a possible eight, and the clock never moves: an idle
  // worker answers it anyway, long before Stop.
  ASSERT_TRUE(done.WaitForTotal(1)) << "idle worker held the request";
  EXPECT_EQ(done.correct(), 1);
  batcher.Stop();
  EXPECT_EQ(done.total(), 1);
}

TEST_F(WorkConservingTest, RequestsQueuedBehindABusyWorkerShareOneBatch) {
  constexpr uint64_t kQueued = 5;  // <= max_batch_size
  util::Counter* batches = util::GetCounter("serve.batches_total");
  const uint64_t batches_before = batches->value();
  DynamicBatcher batcher(pool_.get(), Options());
  Completions done;
  Gate entered;
  Gate release;
  BlockWorker(&batcher, &entered, &release, &done);
  for (uint64_t id = 1; id <= kQueued; ++id) Submit(&batcher, id, &done);
  EXPECT_EQ(batcher.queue_depth(), kQueued);  // the only worker is busy
  release.Signal();
  ASSERT_TRUE(done.WaitForTotal(1 + kQueued));
  // Request 0 alone, then everything that piled up behind it in one cut.
  EXPECT_EQ(batches->value() - batches_before, 2u);
  EXPECT_EQ(done.correct(), 1 + static_cast<int>(kQueued));
  EXPECT_TRUE(done.ExactlyOnceEach(1 + kQueued));
  batcher.Stop();
}

TEST_F(WorkConservingTest, StopWhileWorkerBusyAnswersEveryRequestOnce) {
  constexpr uint64_t kQueued = 5;
  DynamicBatcher batcher(pool_.get(), Options());
  Completions done;
  Gate entered;
  Gate release;
  BlockWorker(&batcher, &entered, &release, &done);
  for (uint64_t id = 1; id <= kQueued; ++id) Submit(&batcher, id, &done);
  std::thread stopper([&batcher] { batcher.Stop(); });
  // Stop has begun once Submit refuses with "shutting down". Probes
  // accepted before that are ordinary requests and must be answered too.
  uint64_t next = kQueued + 1;
  bool stopping = false;
  while (!stopping) {
    const uint64_t id = next;
    batcher.Submit(id, testing::MakeTable(static_cast<int>(id)), true, 0.0,
                   [&, id](util::Result<Outcomes> result) {
                     if (!result.ok() &&
                         result.status().message().find("shutting down") !=
                             std::string::npos) {
                       stopping = true;  // synchronous: this thread
                       return;
                     }
                     done.Record(id, result.ok() &&
                                         testing::SameOutcomes(
                                             result.value(),
                                             expected_[id & 3]));
                   });
    if (!stopping) ++next;
    std::this_thread::yield();
  }
  release.Signal();
  stopper.join();
  // Every accepted request got exactly one real, correct result.
  EXPECT_EQ(done.total(), static_cast<int>(next));
  EXPECT_EQ(done.correct(), static_cast<int>(next));
  EXPECT_TRUE(done.ExactlyOnceEach(next));
  EXPECT_EQ(batcher.queue_depth(), 0u);
}

}  // namespace
}  // namespace doduo::serve
