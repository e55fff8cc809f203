#include "doduo/serve/batcher.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <utility>

namespace doduo::serve {

namespace {

using util::Status;

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// -- BatchQueue ---------------------------------------------------------------

BatchQueue::BatchQueue(int max_batch_size, int64_t max_wait_us,
                       int max_queue_depth)
    : max_batch_size_(std::max(1, max_batch_size)),
      max_wait_us_(std::max<int64_t>(0, max_wait_us)),
      max_queue_depth_(std::max(1, max_queue_depth)) {}

util::Status BatchQueue::Enqueue(PendingRequest&& request, int64_t now_us) {
  if (queue_.size() >= static_cast<size_t>(max_queue_depth_)) {
    return Status::ResourceExhausted(
        "annotation queue full (" + std::to_string(queue_.size()) +
        " pending, depth limit " + std::to_string(max_queue_depth_) +
        "); retry later");
  }
  request.enqueue_us = now_us;
  queue_.push_back(std::move(request));
  return Status::Ok();
}

bool BatchQueue::Ready(int64_t now_us) const {
  if (queue_.empty()) return false;
  if (queue_.size() >= static_cast<size_t>(max_batch_size_)) return true;
  return now_us >= queue_.front().enqueue_us + max_wait_us_;
}

std::vector<PendingRequest> BatchQueue::CutBatch(int64_t now_us, bool force) {
  std::vector<PendingRequest> batch;
  if (queue_.empty() || (!force && !Ready(now_us))) return batch;
  const size_t n =
      std::min(queue_.size(), static_cast<size_t>(max_batch_size_));
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  return batch;
}

int64_t BatchQueue::NextDeadlineUs() const {
  if (queue_.empty()) return -1;
  return queue_.front().enqueue_us + max_wait_us_;
}

// -- DynamicBatcher -----------------------------------------------------------

DynamicBatcher::DynamicBatcher(core::ReplicaPool* replicas,
                               BatcherOptions options)
    : replicas_(replicas),
      options_(std::move(options)),
      queue_(options_.max_batch_size, options_.max_wait_us,
             options_.max_queue_depth),
      queue_wait_us_(util::GetHistogram("serve.queue_wait_us")),
      batch_assembly_us_(util::GetHistogram("serve.batch_assembly_us")),
      inference_us_(util::GetHistogram("serve.inference_us")),
      batch_size_(util::GetHistogram("serve.batch_size")),
      requests_total_(util::GetCounter("serve.requests_total")),
      requests_rejected_(util::GetCounter("serve.requests_rejected")),
      batches_total_(util::GetCounter("serve.batches_total")) {
  if (options_.manual_drain) return;
  const int workers = std::max(
      1, std::min(options_.num_workers, replicas_->num_replicas()));
  workers_.reserve(workers);
  for (int w = 0; w < workers; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

DynamicBatcher::~DynamicBatcher() { Stop(); }

int64_t DynamicBatcher::NowUs() const {
  return options_.clock_us ? options_.clock_us() : SteadyNowUs();
}

void DynamicBatcher::Submit(uint64_t id, table::Table table, bool sanitize,
                            double abstain_below, AnnotateCallback callback) {
  requests_total_->Increment();
  PendingRequest request;
  request.id = id;
  request.table = std::move(table);
  request.callback = std::move(callback);
  request.sanitize = sanitize;
  request.abstain_below = abstain_below;
  Status pushed = Status::Ok();
  {
    util::MutexLock lock(&mu_);
    if (stopping_) {
      pushed = Status::ResourceExhausted("batcher is shutting down");
    } else {
      // Enqueue only moves from `request` on success, so a rejected request
      // still owns its callback here.
      pushed = queue_.Enqueue(std::move(request), NowUs());
    }
  }
  if (!pushed.ok()) {
    // Backpressure: reject synchronously, exactly one callback either way.
    requests_rejected_->Increment();
    request.callback(std::move(pushed));
    return;
  }
  cv_.NotifyOne();
}

size_t DynamicBatcher::DrainOnce(bool force) {
  std::vector<PendingRequest> batch;
  {
    util::MutexLock lock(&mu_);
    batch = queue_.CutBatch(NowUs(), force);
  }
  const size_t n = batch.size();
  if (n > 0) RunBatch(std::move(batch), 0);
  return n;
}

void DynamicBatcher::Stop() {
  {
    util::MutexLock lock(&mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  // Manual mode (and a zero-worker edge) drains here; threaded workers
  // already drained before exiting.
  while (DrainOnce(/*force=*/true) > 0) {
  }
}

size_t DynamicBatcher::queue_depth() const {
  util::MutexLock lock(&mu_);
  return queue_.size();
}

void DynamicBatcher::WorkerLoop(int replica_index) {
  for (;;) {
    std::vector<PendingRequest> batch;
    {
      util::MutexLock lock(&mu_);
      // Wait until a flush trigger fires or we are told to stop. The timed
      // wait targets the front request's deadline so flush-on-deadline
      // never depends on more traffic arriving.
      for (;;) {
        if (stopping_ || queue_.Ready(NowUs())) break;
        const int64_t deadline = queue_.NextDeadlineUs();
        if (deadline < 0) {
          cv_.Wait(&mu_);
        } else {
          const int64_t wait_us = std::max<int64_t>(1, deadline - NowUs());
          (void)cv_.WaitFor(&mu_, wait_us);
        }
      }
      batch = queue_.CutBatch(NowUs(), /*force=*/stopping_);
      if (batch.empty()) {
        if (stopping_) return;
        continue;
      }
    }
    // Inference runs with mu_ released so Submit never waits on a forward
    // pass.
    RunBatch(std::move(batch), replica_index);
    // More work may be ready (e.g. a burst deeper than one batch); let a
    // sibling grab it while this worker loops back to the queue.
    cv_.NotifyOne();
  }
}

void DynamicBatcher::RunBatch(std::vector<PendingRequest> batch,
                              int replica_index) {
  // Debug guard: worker w is the sole user of replica w while this batch
  // runs; two workers sharing an index is a protocol bug and aborts.
  core::ReplicaPool::ScopedUse replica_use(replicas_, replica_index);
  const int64_t cut_us = NowUs();
  int64_t oldest_us = cut_us;
  for (const PendingRequest& request : batch) {
    queue_wait_us_->Record(static_cast<uint64_t>(
        std::max<int64_t>(0, cut_us - request.enqueue_us)));
    oldest_us = std::min(oldest_us, request.enqueue_us);
  }
  // Assembly latency: how long the batch took to fill from its first
  // request to the cut.
  batch_assembly_us_->Record(
      static_cast<uint64_t>(std::max<int64_t>(0, cut_us - oldest_us)));
  batch_size_->Record(batch.size());
  batches_total_->Increment();

  // The sanitize flag is the one option that changes the shared
  // computation; abstention is applied per request after it.
  const core::Annotator* annotator = replicas_->annotator(replica_index);
  RunGroup(annotator, batch, /*sanitize=*/true);
  RunGroup(annotator, batch, /*sanitize=*/false);
}

void DynamicBatcher::RunGroup(const core::Annotator* annotator,
                              std::vector<PendingRequest>& batch,
                              bool sanitize) {
  std::vector<PendingRequest*> group;
  std::vector<table::Table> tables;
  for (PendingRequest& request : batch) {
    if (request.sanitize != sanitize) continue;
    group.push_back(&request);
    tables.push_back(std::move(request.table));
  }
  if (group.empty()) return;
  core::AnnotateOptions options;
  options.sanitize = sanitize;
  // abstain_below stays 0 here: outcomes are computed once for the group,
  // then each request's own threshold is applied to its copy below.
  auto all = [&] {
    util::ScopedTimer timer(inference_us_, "serve.inference");
    return annotator->AnnotateTypesRobustBatch(
        std::span<const table::Table>(tables), options);
  }();
  for (size_t g = 0; g < group.size(); ++g) {
    std::vector<core::ColumnOutcome> outcomes = std::move(all[g]);
    for (core::ColumnOutcome& outcome : outcomes) {
      core::ApplyAbstention(&outcome, group[g]->abstain_below);
    }
    group[g]->callback(std::move(outcomes));
  }
}

}  // namespace doduo::serve
