#ifndef DODUO_SERVE_BATCHER_H_
#define DODUO_SERVE_BATCHER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "doduo/core/annotator.h"
#include "doduo/core/replica_pool.h"
#include "doduo/table/table.h"
#include "doduo/util/metrics.h"
#include "doduo/util/mutex.h"
#include "doduo/util/status.h"
#include "doduo/util/thread_annotations.h"

namespace doduo::serve {

/// Invoked exactly once per submitted request, from a batcher worker thread
/// (or synchronously from Submit on queue-full rejection / from Stop when
/// draining), with one ColumnOutcome per column of the submitted table.
/// The Result is non-OK only for batcher-level rejections (queue full,
/// shutting down); the annotation itself never fails a table. Must not
/// call back into the batcher.
using AnnotateCallback =
    std::function<void(util::Result<std::vector<core::ColumnOutcome>>)>;

struct PendingRequest {
  uint64_t id = 0;
  table::Table table;
  AnnotateCallback callback;
  bool sanitize = true;
  double abstain_below = 0.0;
  int64_t enqueue_us = 0;  // stamped by BatchQueue::Enqueue
};

/// The deterministic half of dynamic batching (DESIGN §12): a FIFO of
/// pending requests with the two flush triggers — batch full, or the
/// OLDEST pending request has waited max_wait_us. No threads, no clocks:
/// every transition takes an explicit `now_us`, so unit tests drive the
/// state machine step by step with a synthetic timeline.
class BatchQueue {
 public:
  BatchQueue(int max_batch_size, int64_t max_wait_us, int max_queue_depth);

  /// Enqueues (stamping request.enqueue_us = now_us). Rejects with
  /// kResourceExhausted — the backpressure signal — when max_queue_depth
  /// requests are already waiting; on rejection the request is NOT moved
  /// from, so the caller still owns its callback.
  [[nodiscard]] util::Status Enqueue(PendingRequest&& request, int64_t now_us);

  /// True when CutBatch(now_us) would return a non-empty batch: a full
  /// batch is waiting, or the front request's deadline has passed.
  bool Ready(int64_t now_us) const;

  /// Pops the next batch — the oldest min(size, max_batch_size) requests,
  /// in FIFO order — if Ready(now_us) or `force`. Empty vector otherwise.
  std::vector<PendingRequest> CutBatch(int64_t now_us, bool force);

  /// Absolute µs timestamp at which the front request must flush, or -1
  /// when the queue is empty. The scheduling hint for timed waits.
  int64_t NextDeadlineUs() const;

  size_t size() const { return queue_.size(); }
  int max_batch_size() const { return max_batch_size_; }
  int64_t max_wait_us() const { return max_wait_us_; }

 private:
  int max_batch_size_;
  int64_t max_wait_us_;
  int max_queue_depth_;
  std::deque<PendingRequest> queue_;
};

struct BatcherOptions {
  int max_batch_size = 8;
  int64_t max_wait_us = 2000;
  int max_queue_depth = 256;
  /// Worker threads == replicas consumed from the pool (clamped to the
  /// pool's replica count).
  int num_workers = 1;
  /// Injectable monotonic clock; nullptr = steady_clock. Tests pair a fake
  /// clock with manual_drain so nothing ever really waits.
  std::function<int64_t()> clock_us;
  /// When true no worker threads start; the owner pumps batches through
  /// DrainOnce(). Deterministic-test mode.
  bool manual_drain = false;
};

/// Coalesces concurrent single-table annotate requests into batches for
/// Annotator::AnnotateTypesRobustBatch. Worker thread w owns replica w of the
/// ReplicaPool for its whole lifetime, so batches on different workers run
/// concurrently without sharing forward state, while all replicas share one
/// immutable weight snapshot.
///
/// Flush policy: a worker cuts a batch as soon as max_batch_size requests
/// wait, or the oldest request has waited max_wait_us. A cut batch is
/// grouped by its requests' sanitize flag, each group makes one
/// AnnotateTypesRobustBatch call, and each request's abstention threshold
/// is applied to its own outcomes afterwards (core::ApplyAbstention), so
/// co-batched clients with different thresholds never contaminate each
/// other. The robust batch call never fails a table, so one bad table
/// cannot reject its neighbours.
///
/// Stop() (and the destructor) drains: every request already accepted by
/// Submit still gets its callback, with a real result.
class DynamicBatcher {
 public:
  DynamicBatcher(core::ReplicaPool* replicas, BatcherOptions options);
  ~DynamicBatcher();

  DynamicBatcher(const DynamicBatcher&) = delete;
  DynamicBatcher& operator=(const DynamicBatcher&) = delete;

  /// Enqueues one table with its options. The callback fires exactly
  /// once: immediately with kResourceExhausted when the queue is full
  /// (backpressure — the caller should surface the status and keep the
  /// connection usable), later with the per-column outcomes otherwise.
  void Submit(uint64_t id, table::Table table, bool sanitize,
              double abstain_below, AnnotateCallback callback);

  /// manual_drain mode: cuts at most one batch (force = flush even if
  /// neither trigger fired) and runs it synchronously on replica 0.
  /// Returns how many requests were completed.
  size_t DrainOnce(bool force);

  /// Stops workers after draining every accepted request. Idempotent.
  void Stop();

  size_t queue_depth() const;

 private:
  void WorkerLoop(int replica_index);
  /// Runs one cut batch on `replica_index` and fires its callbacks. Called
  /// with mu_ released: inference must never serialize against Submit.
  void RunBatch(std::vector<PendingRequest> batch, int replica_index)
      DODUO_EXCLUDES(mu_);
  /// Runs the requests of a batch whose sanitize flag equals `sanitize`
  /// through one AnnotateTypesRobustBatch call, then applies each
  /// request's own abstention threshold.
  void RunGroup(const core::Annotator* annotator,
                std::vector<PendingRequest>& batch, bool sanitize);
  int64_t NowUs() const;

  core::ReplicaPool* replicas_;
  BatcherOptions options_;

  mutable util::Mutex mu_{"serve.batcher"};
  util::CondVar cv_;
  BatchQueue queue_ DODUO_GUARDED_BY(mu_);
  bool stopping_ DODUO_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;  // written by ctor and Stop only

  // Cached metric handles (DESIGN §10: look up once, record in loops).
  util::Histogram* queue_wait_us_;
  util::Histogram* batch_assembly_us_;
  util::Histogram* inference_us_;
  util::Histogram* batch_size_;
  util::Counter* requests_total_;
  util::Counter* requests_rejected_;
  util::Counter* batches_total_;
};

}  // namespace doduo::serve

#endif  // DODUO_SERVE_BATCHER_H_
