// Deterministic unit tests for the dynamic batcher (DESIGN §12): the
// BatchQueue state machine is driven with an explicit synthetic timeline,
// and DynamicBatcher runs in manual_drain mode with an injected clock — no
// real sockets, no real sleeps, no wall-clock dependence anywhere.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "doduo/serve/batcher.h"
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

// -- BatchQueue ---------------------------------------------------------------

TEST(BatchQueueTest, FlushesWhenBatchFills) {
  BatchQueue queue(/*max_batch_size=*/3, /*max_wait_us=*/1000,
                   /*max_queue_depth=*/16);
  ASSERT_TRUE(queue.Enqueue(Request(1), 10).ok());
  ASSERT_TRUE(queue.Enqueue(Request(2), 11).ok());
  EXPECT_FALSE(queue.Ready(12));  // neither full nor expired
  EXPECT_TRUE(queue.CutBatch(12, /*force=*/false).empty());
  ASSERT_TRUE(queue.Enqueue(Request(3), 12).ok());
  EXPECT_TRUE(queue.Ready(12));  // full, regardless of elapsed time
  const auto batch = queue.CutBatch(12, /*force=*/false);
  EXPECT_EQ(Ids(batch), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BatchQueueTest, FlushesWhenOldestRequestExpires) {
  BatchQueue queue(/*max_batch_size=*/8, /*max_wait_us=*/1000,
                   /*max_queue_depth=*/16);
  ASSERT_TRUE(queue.Enqueue(Request(1), 100).ok());
  ASSERT_TRUE(queue.Enqueue(Request(2), 600).ok());
  EXPECT_EQ(queue.NextDeadlineUs(), 1100);  // oldest request's deadline
  EXPECT_FALSE(queue.Ready(1099));
  EXPECT_TRUE(queue.Ready(1100));
  // The deadline flush takes every waiting request, not just the expired
  // one.
  EXPECT_EQ(Ids(queue.CutBatch(1100, /*force=*/false)),
            (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(queue.NextDeadlineUs(), -1);
}

TEST(BatchQueueTest, CutBatchKeepsFifoOrderAndCapsAtBatchSize) {
  BatchQueue queue(/*max_batch_size=*/2, /*max_wait_us=*/0,
                   /*max_queue_depth=*/16);
  for (uint64_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(queue.Enqueue(Request(id), static_cast<int64_t>(id)).ok());
  }
  EXPECT_EQ(Ids(queue.CutBatch(10, false)), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(Ids(queue.CutBatch(10, false)), (std::vector<uint64_t>{3, 4}));
  EXPECT_EQ(Ids(queue.CutBatch(10, false)), (std::vector<uint64_t>{5}));
  EXPECT_TRUE(queue.CutBatch(10, false).empty());
}

TEST(BatchQueueTest, RejectsWhenFullAndLeavesRequestIntact) {
  BatchQueue queue(/*max_batch_size=*/4, /*max_wait_us=*/1000,
                   /*max_queue_depth=*/2);
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
  EXPECT_EQ(queue.CutBatch(0, /*force=*/true).size(), 2u);
  EXPECT_TRUE(queue.Enqueue(Request(4), 1).ok());
}

TEST(BatchQueueTest, ForceFlushesPartialBatch) {
  BatchQueue queue(/*max_batch_size=*/8, /*max_wait_us=*/1000000,
                   /*max_queue_depth=*/16);
  ASSERT_TRUE(queue.Enqueue(Request(1), 0).ok());
  EXPECT_TRUE(queue.CutBatch(1, /*force=*/false).empty());
  EXPECT_EQ(Ids(queue.CutBatch(1, /*force=*/true)),
            (std::vector<uint64_t>{1}));
}

// -- DynamicBatcher (manual drain, injected clock) ---------------------------

class DynamicBatcherTest : public ::testing::Test {
 protected:
  DynamicBatcherTest() : pool_(model_.MakePool(1)) {}

  BatcherOptions Options(int max_batch, int64_t max_wait, int depth) {
    BatcherOptions options;
    options.max_batch_size = max_batch;
    options.max_wait_us = max_wait;
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
  DynamicBatcher batcher(pool_.get(), Options(4, 1000, 16));
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
  ASSERT_EQ(batcher.DrainOnce(/*force=*/false), 4u);  // batch is full
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

TEST_F(DynamicBatcherTest, DeadlineFlushUsesInjectedClock) {
  DynamicBatcher batcher(pool_.get(), Options(8, 500, 16));
  int completions = 0;
  now_us_ = 1000;
  batcher.Submit(1, testing::MakeTable(1), /*sanitize=*/true,
                 /*abstain_below=*/0.0, [&](util::Result<Outcomes> result) {
                   EXPECT_TRUE(result.ok());
                   ++completions;
                 });
  EXPECT_EQ(batcher.DrainOnce(/*force=*/false), 0u);  // not expired yet
  now_us_ = 1499;
  EXPECT_EQ(batcher.DrainOnce(/*force=*/false), 0u);
  now_us_ = 1500;  // enqueue + max_wait reached
  EXPECT_EQ(batcher.DrainOnce(/*force=*/false), 1u);
  EXPECT_EQ(completions, 1);
}

TEST_F(DynamicBatcherTest, RejectsWithResourceExhaustedWhenQueueFull) {
  DynamicBatcher batcher(pool_.get(), Options(8, 1000, /*depth=*/2));
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
  EXPECT_EQ(batcher.DrainOnce(/*force=*/true), 2u);
  EXPECT_EQ(ok_callbacks, 2);
  EXPECT_EQ(rejections, 3);
}

TEST_F(DynamicBatcherTest, ZeroColumnTableGetsEmptyOutcomesBesideNeighbours) {
  DynamicBatcher batcher(pool_.get(), Options(4, 1000, 16));
  std::map<uint64_t, util::Result<Outcomes>> results;
  auto record = [&](uint64_t id) {
    return [&, id](util::Result<Outcomes> result) {
      results.emplace(id, std::move(result));
    };
  };
  batcher.Submit(0, testing::MakeTable(0), true, 0.0, record(0));
  batcher.Submit(1, testing::MakeEmptyTable(), true, 0.0, record(1));
  batcher.Submit(2, testing::MakeTable(2), true, 0.0, record(2));
  EXPECT_EQ(batcher.DrainOnce(/*force=*/true), 3u);
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
  DynamicBatcher batcher(pool_.get(), Options(4, 1000000, 64));
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
  DynamicBatcher batcher(pool_.get(), Options(8, 1000, 16));
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
  EXPECT_EQ(batcher.DrainOnce(/*force=*/true), 4u);

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
  options.max_wait_us = 200;
  options.max_queue_depth = 64;
  options.num_workers = 2;
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

}  // namespace
}  // namespace doduo::serve
