#include "doduo/util/metrics.h"

#include <map>
#include <memory>
#include <sstream>

#include "doduo/util/mutex.h"
#include "doduo/util/thread_annotations.h"

namespace doduo::util {

namespace {

// Registered metrics live behind unique_ptr so the pointers handed out by
// GetCounter/GetHistogram survive map rehashing and process teardown order.
struct Registry {
  Mutex mutex{"metrics.registry"};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters
      DODUO_GUARDED_BY(mutex);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms
      DODUO_GUARDED_BY(mutex);
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();  // never destroyed
  return *registry;
}

struct TraceState {
  Mutex mutex{"metrics.trace"};
  TraceHook hook DODUO_GUARDED_BY(mutex);
};

std::atomic<bool> g_has_trace_hook{false};

TraceState& GetTraceState() {
  static TraceState* state = new TraceState();  // never destroyed
  return *state;
}

void EmitTrace(const char* span, uint64_t micros) {
  TraceState& state = GetTraceState();
  MutexLock lock(&state.mutex);
  if (state.hook) state.hook(span, micros);
}

void AppendJsonString(std::ostringstream* out, const std::string& text) {
  *out << '"';
  for (char c : text) {
    if (c == '"' || c == '\\') *out << '\\';
    *out << c;
  }
  *out << '"';
}

}  // namespace

void Counter::Increment(uint64_t delta) {
  value_.fetch_add(delta, std::memory_order_relaxed);
}

void Histogram::Record(uint64_t micros) {
  int bucket = 0;
  while (bucket < kNumBuckets - 1 && BucketUpperMicros(bucket) < micros) {
    ++bucket;
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(micros, std::memory_order_relaxed);
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

Counter* GetCounter(std::string_view name) {
  Registry& registry = GetRegistry();
  MutexLock lock(&registry.mutex);
  auto it = registry.counters.find(name);
  if (it == registry.counters.end()) {
    it = registry.counters
             .emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Histogram* GetHistogram(std::string_view name) {
  Registry& registry = GetRegistry();
  MutexLock lock(&registry.mutex);
  auto it = registry.histograms.find(name);
  if (it == registry.histograms.end()) {
    it = registry.histograms
             .emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

MetricsSnapshot SnapshotMetrics() {
  Registry& registry = GetRegistry();
  MutexLock lock(&registry.mutex);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(registry.counters.size());
  for (const auto& [name, counter] : registry.counters) {
    snapshot.counters.push_back({name, counter->value()});
  }
  snapshot.histograms.reserve(registry.histograms.size());
  for (const auto& [name, histogram] : registry.histograms) {
    HistogramSnapshot h;
    h.name = name;
    h.count = histogram->count();
    h.sum_micros = histogram->sum_micros();
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      const uint64_t count = histogram->bucket_count(b);
      if (count > 0) {
        h.buckets.emplace_back(Histogram::BucketUpperMicros(b), count);
      }
    }
    snapshot.histograms.push_back(std::move(h));
  }
  return snapshot;
}

std::string MetricsToJson() {
  const MetricsSnapshot snapshot = SnapshotMetrics();
  std::ostringstream out;
  out << "{\"counters\":{";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    if (i > 0) out << ',';
    AppendJsonString(&out, snapshot.counters[i].name);
    out << ':' << snapshot.counters[i].value;
  }
  out << "},\"histograms\":{";
  for (size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramSnapshot& h = snapshot.histograms[i];
    if (i > 0) out << ',';
    AppendJsonString(&out, h.name);
    out << ":{\"count\":" << h.count << ",\"sum_us\":" << h.sum_micros
        << ",\"buckets\":[";
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      if (b > 0) out << ',';
      out << "[" << h.buckets[b].first << ',' << h.buckets[b].second << "]";
    }
    out << "]}";
  }
  out << "}}";
  return out.str();
}

void ResetMetrics() {
  Registry& registry = GetRegistry();
  MutexLock lock(&registry.mutex);
  for (auto& [name, counter] : registry.counters) counter->Reset();
  for (auto& [name, histogram] : registry.histograms) histogram->Reset();
}

void SetTraceHook(TraceHook hook) {
  TraceState& state = GetTraceState();
  MutexLock lock(&state.mutex);
  state.hook = std::move(hook);
  g_has_trace_hook.store(static_cast<bool>(state.hook),
                         std::memory_order_relaxed);
}

ScopedTimer::ScopedTimer(Histogram* histogram, const char* span)
    : histogram_(histogram),
      span_(span),
      start_(std::chrono::steady_clock::now()) {}

ScopedTimer::~ScopedTimer() {
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  const uint64_t micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
  if (histogram_ != nullptr) histogram_->Record(micros);
  if (g_has_trace_hook.load(std::memory_order_relaxed)) {
    EmitTrace(span_, micros);
  }
}

}  // namespace doduo::util
