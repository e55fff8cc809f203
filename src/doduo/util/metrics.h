#ifndef DODUO_UTIL_METRICS_H_
#define DODUO_UTIL_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "doduo/util/metric_names.h"

namespace doduo::util {

// Process-wide counters and latency histograms for the annotation pipeline
// (see DESIGN §10). Recording is lock-free (relaxed atomics) and performs no
// heap allocations; registration (GetCounter/GetHistogram) allocates once
// per name and returns a pointer that stays valid for the process lifetime,
// so instrumented call sites resolve their metrics once and then only pay
// an atomic add per event. Recording is always on.

/// Monotonic event counter.
class Counter {
 public:
  /// Adds `delta`.
  void Increment(uint64_t delta = 1);

  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Fixed-bucket latency histogram over microseconds. Bucket `i` counts
/// samples in (2^(i-1), 2^i] µs (bucket 0: [0, 1] µs); the last bucket
/// absorbs everything larger (~134 s and up).
class Histogram {
 public:
  static constexpr int kNumBuckets = 28;

  /// Records one sample.
  void Record(uint64_t micros);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum_micros() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket_count(int bucket) const {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }
  /// Inclusive upper bound of `bucket` in microseconds.
  static uint64_t BucketUpperMicros(int bucket) {
    return uint64_t{1} << bucket;
  }
  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// Returns the registered counter/histogram for `name`, creating it on the
/// first call. The returned pointer never moves or expires.
Counter* GetCounter(std::string_view name);
Histogram* GetHistogram(std::string_view name);

/// Sets the info label `name` to `value`: a fact about how this process
/// runs (the int8 path's state and kernel, DESIGN §14), exported beside the
/// metrics. Takes the registry lock; not for hot paths.
void SetInfo(std::string_view name, std::string_view value);

// -- Snapshots & export -----------------------------------------------------

struct CounterSnapshot {
  std::string name;
  uint64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t sum_micros = 0;
  /// (inclusive upper bound in µs, sample count) for non-empty buckets only.
  std::vector<std::pair<uint64_t, uint64_t>> buckets;
};

struct InfoSnapshot {
  std::string name;
  std::string value;
};

struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<HistogramSnapshot> histograms;
  std::vector<InfoSnapshot> info;
};

/// Consistent-enough copy of every registered metric, sorted by name.
MetricsSnapshot SnapshotMetrics();

/// JSON object {"counters": {...}, "histograms": {...}, "info": {...}} of
/// the snapshot (the STATS frame, doduo_cli --stats and the bench binaries'
/// DODUO_BENCH_METRICS dump).
std::string MetricsToJson();

/// Zeroes every registered metric (tests and benches); info labels stay.
void ResetMetrics();

// -- Tracing ----------------------------------------------------------------

/// Span hook called by every completed ScopedTimer with the span name and
/// elapsed microseconds; an empty function uninstalls it. The hook runs on
/// the recording thread — keep it cheap.
using TraceHook = std::function<void(std::string_view span, uint64_t micros)>;
void SetTraceHook(TraceHook hook);

/// Times a scope into `histogram` and reports it to the trace hook.
class ScopedTimer {
 public:
  /// `span` must outlive the timer (string literals in practice).
  ScopedTimer(Histogram* histogram, const char* span);
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer();

 private:
  Histogram* histogram_;
  const char* span_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace doduo::util

#endif  // DODUO_UTIL_METRICS_H_
