#include "doduo/util/metrics.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace doduo::util {
namespace {

// Each test uses its own metric names: the registry is process-wide, so
// names shared across tests would see each other's counts.

TEST(MetricsTest, CounterIncrementsAndResets) {
  Counter* counter = GetCounter("test.counter_basic");
  counter->Reset();
  EXPECT_EQ(counter->value(), 0u);
  counter->Increment();
  counter->Increment(41);
  EXPECT_EQ(counter->value(), 42u);
  counter->Reset();
  EXPECT_EQ(counter->value(), 0u);
}

TEST(MetricsTest, RegistryReturnsStablePointers) {
  Counter* a = GetCounter("test.registry_stable");
  Counter* b = GetCounter("test.registry_stable");
  EXPECT_EQ(a, b);
  Histogram* h1 = GetHistogram("test.registry_stable_h");
  Histogram* h2 = GetHistogram("test.registry_stable_h");
  EXPECT_EQ(h1, h2);
}

TEST(MetricsTest, HistogramBucketsByPowerOfTwoMicros) {
  Histogram* histogram = GetHistogram("test.histogram_buckets");
  histogram->Reset();
  histogram->Record(0);    // bucket 0: [0, 1]
  histogram->Record(1);    // bucket 0
  histogram->Record(2);    // bucket 1: (1, 2]
  histogram->Record(3);    // bucket 2: (2, 4]
  histogram->Record(100);  // bucket 7: (64, 128]
  EXPECT_EQ(histogram->count(), 5u);
  EXPECT_EQ(histogram->sum_micros(), 106u);
  EXPECT_EQ(histogram->bucket_count(0), 2u);
  EXPECT_EQ(histogram->bucket_count(1), 1u);
  EXPECT_EQ(histogram->bucket_count(2), 1u);
  EXPECT_EQ(histogram->bucket_count(7), 1u);
  // A sample beyond the largest bound lands in the final bucket.
  histogram->Record(~uint64_t{0});
  EXPECT_EQ(histogram->bucket_count(Histogram::kNumBuckets - 1), 1u);
  EXPECT_EQ(Histogram::BucketUpperMicros(0), 1u);
  EXPECT_EQ(Histogram::BucketUpperMicros(10), 1024u);
}

TEST(MetricsTest, SnapshotContainsRegisteredMetrics) {
  Counter* counter = GetCounter("test.snapshot_counter");
  Histogram* histogram = GetHistogram("test.snapshot_histogram");
  counter->Reset();
  histogram->Reset();
  counter->Increment(7);
  histogram->Record(3);
  const MetricsSnapshot snapshot = SnapshotMetrics();
  bool found_counter = false;
  for (const CounterSnapshot& c : snapshot.counters) {
    if (c.name == "test.snapshot_counter") {
      found_counter = true;
      EXPECT_EQ(c.value, 7u);
    }
  }
  EXPECT_TRUE(found_counter);
  bool found_histogram = false;
  for (const HistogramSnapshot& h : snapshot.histograms) {
    if (h.name == "test.snapshot_histogram") {
      found_histogram = true;
      EXPECT_EQ(h.count, 1u);
      EXPECT_EQ(h.sum_micros, 3u);
      // Only non-empty buckets appear: one entry, upper bound 4 µs.
      ASSERT_EQ(h.buckets.size(), 1u);
      EXPECT_EQ(h.buckets[0].first, 4u);
      EXPECT_EQ(h.buckets[0].second, 1u);
    }
  }
  EXPECT_TRUE(found_histogram);
}

TEST(MetricsTest, JsonExportContainsValues) {
  Counter* counter = GetCounter("test.json_counter");
  counter->Reset();
  counter->Increment(5);
  const std::string json = MetricsToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_counter\":5"), std::string::npos);
}

TEST(MetricsTest, ScopedTimerRecordsIntoHistogram) {
  Histogram* histogram = GetHistogram("test.scoped_timer");
  histogram->Reset();
  { ScopedTimer timer(histogram, "test.span"); }
  EXPECT_EQ(histogram->count(), 1u);
}

TEST(MetricsTest, TraceHookSeesSpans) {
  Histogram* histogram = GetHistogram("test.trace_hook");
  histogram->Reset();
  std::vector<std::string> spans;
  SetTraceHook([&spans](std::string_view span, uint64_t) {
    spans.emplace_back(span);
  });
  { ScopedTimer timer(histogram, "test.traced_span"); }
  SetTraceHook(nullptr);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0], "test.traced_span");
  // With the hook uninstalled, spans stop flowing but recording continues.
  { ScopedTimer timer(histogram, "test.traced_span"); }
  EXPECT_EQ(spans.size(), 1u);
  EXPECT_EQ(histogram->count(), 2u);
}

TEST(MetricsTest, ResetMetricsZeroesEverything) {
  Counter* counter = GetCounter("test.reset_all_counter");
  Histogram* histogram = GetHistogram("test.reset_all_histogram");
  counter->Increment(3);
  histogram->Record(9);
  ResetMetrics();
  EXPECT_EQ(counter->value(), 0u);
  EXPECT_EQ(histogram->count(), 0u);
  EXPECT_EQ(histogram->sum_micros(), 0u);
}

TEST(MetricsTest, ConcurrentIncrementsAreLossless) {
  Counter* counter = GetCounter("test.concurrent_counter");
  Histogram* histogram = GetHistogram("test.concurrent_histogram");
  counter->Reset();
  histogram->Reset();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        histogram->Record(static_cast<uint64_t>(i % 64));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(histogram->count(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace doduo::util
