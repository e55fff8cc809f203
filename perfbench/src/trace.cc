#include "src/trace.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>

#include "doduo/util/metrics.h"

namespace perfbench {

namespace {

struct RawSpan {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int64_t request_id;
};

// One buffer per recording thread, appended to without a lock by its
// owner. Buffers live for the process (thread_local pointers into them
// stay valid); Install clears their contents.
struct ThreadBuffer {
  std::thread::id owner;
  std::vector<RawSpan> spans;
};

std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuffer>>* g_buffers =
    new std::vector<std::unique_ptr<ThreadBuffer>>();
std::thread::id g_main_thread;
thread_local ThreadBuffer* t_buffer = nullptr;
thread_local int64_t t_request_id = -1;

ThreadBuffer* LocalBuffer() {
  if (t_buffer == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->owner = std::this_thread::get_id();
    buffer->spans.reserve(1 << 14);
    std::lock_guard<std::mutex> lock(g_mu);
    t_buffer = buffer.get();
    g_buffers->push_back(std::move(buffer));
  }
  return t_buffer;
}

// Timer spans report whole microseconds, so containment is judged with
// this much slack.
constexpr int64_t kSlackNs = 2000;

bool Contains(const SpanRecord& outer, const SpanRecord& inner) {
  return outer.start_ns <= inner.start_ns + kSlackNs &&
         inner.end_ns <= outer.end_ns + kSlackNs;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

TraceRecorder::~TraceRecorder() { Uninstall(); }

void TraceRecorder::Install() {
  {
    std::lock_guard<std::mutex> lock(g_mu);
    g_main_thread = std::this_thread::get_id();
    for (auto& buffer : *g_buffers) buffer->spans.clear();
  }
  doduo::util::SetTraceHook([](std::string_view span, uint64_t micros) {
    const int64_t end = NowNs();
    LocalBuffer()->spans.push_back(
        {span.data(), end - static_cast<int64_t>(micros) * 1000, end,
         t_request_id});
  });
}

void TraceRecorder::Uninstall() { doduo::util::SetTraceHook({}); }

void TraceRecorder::Record(const char* name, int64_t start_ns, int64_t end_ns,
                           int64_t request_id) {
  LocalBuffer()->spans.push_back({name, start_ns, end_ns, request_id});
}

TraceRecorder::Span::Span(TraceRecorder* recorder, const char* name,
                          int64_t request_id)
    : recorder_(recorder),
      name_(name),
      request_id_(request_id),
      enclosing_id_(t_request_id),
      start_ns_(NowNs()) {
  // Program spans recorded inside this scope on this thread inherit the id.
  t_request_id = request_id;
}

TraceRecorder::Span::~Span() {
  const int64_t end = NowNs();
  t_request_id = enclosing_id_;
  if (recorder_ != nullptr) {
    recorder_->Record(name_, start_ns_, end, request_id_);
  }
}

std::vector<SpanRecord> TraceRecorder::Collect() {
  std::vector<SpanRecord> spans;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    int next_thread = 1;
    for (auto& buffer : *g_buffers) {
      const int thread =
          buffer->owner == g_main_thread ? 0 : next_thread++;
      for (const RawSpan& raw : buffer->spans) {
        SpanRecord span;
        span.name = raw.name;
        span.start_ns = raw.start_ns;
        span.end_ns = raw.end_ns;
        span.thread = thread;
        span.request_id = raw.request_id;
        spans.push_back(std::move(span));
      }
    }
  }
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.thread != b.thread) return a.thread < b.thread;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.end_ns > b.end_ns;
            });

  // Same-thread nesting by containment.
  std::vector<int> stack;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i > 0 && spans[i].thread != spans[i - 1].thread) stack.clear();
    while (!stack.empty() &&
           !Contains(spans[static_cast<size_t>(stack.back())], spans[i])) {
      stack.pop_back();
    }
    if (!stack.empty()) spans[i].parent = stack.back();
    stack.push_back(static_cast<int>(i));
  }

  // A root on a worker thread belongs to the innermost main-thread span
  // that contains it (the batch call that fanned out to the worker). Main
  // spans come first and are sorted by start, so walking back from the
  // last one starting before the root finds the innermost container.
  size_t main_end = 0;
  while (main_end < spans.size() && spans[main_end].thread == 0) ++main_end;
  for (size_t i = main_end; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) continue;
    auto it = std::upper_bound(
        spans.begin(), spans.begin() + static_cast<int64_t>(main_end),
        spans[i].start_ns + kSlackNs,
        [](int64_t start, const SpanRecord& s) { return start < s.start_ns; });
    for (int64_t k = (it - spans.begin()) - 1; k >= 0; --k) {
      if (Contains(spans[static_cast<size_t>(k)], spans[i])) {
        spans[i].parent = static_cast<int>(k);
        break;
      }
    }
  }

  // Request ids the program could not know come from the nearest ancestor.
  for (SpanRecord& span : spans) {
    int p = span.parent;
    while (span.request_id < 0 && p >= 0) {
      span.request_id = spans[static_cast<size_t>(p)].request_id;
      p = spans[static_cast<size_t>(p)].parent;
    }
  }

  // Self time: duration minus the union of the children's intervals.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanRecord& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = spans[i].start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, spans[i].end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    spans[i].self_ns = std::max<int64_t>(0, spans[i].duration_ns() - covered);
  }
  return spans;
}

std::map<std::string, double> SelfMsByName(
    const std::vector<SpanRecord>& spans) {
  std::map<std::string, double> out;
  for (const SpanRecord& span : spans) {
    out[span.name] += static_cast<double>(span.self_ns) / 1e6;
  }
  return out;
}

std::string LayerOf(const std::string& name) {
  if (name.rfind("csv.", 0) == 0) return "util";
  if (name.rfind("table.", 0) == 0) return "table";
  if (name.rfind("serializer.", 0) == 0) return "text+table";
  if (name.rfind("model.encoder", 0) == 0) return "transformer";
  if (name.rfind("model.", 0) == 0 || name.rfind("annotator.", 0) == 0 ||
      name.rfind("load.", 0) == 0) {
    return "core";
  }
  if (name.rfind("serve.", 0) == 0) return "serve";
  return "bench";
}

bool WriteChromeTrace(const std::vector<SpanRecord>& spans,
                      const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const SpanRecord& span : spans) origin = std::min(origin, span.start_ns);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"request_id\":"
                 "%lld,\"parent\":%d,\"self_us\":%.3f}}\n",
                 i > 0 ? "," : "", s.name.c_str(), LayerOf(s.name).c_str(),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.duration_ns()) / 1e3, s.thread,
                 static_cast<long long>(s.request_id), s.parent,
                 static_cast<double>(s.self_ns) / 1e3);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
