#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

// In-memory span recorder for the traced run. It collects the program's
// own ScopedTimer spans through util::SetTraceHook (end = hook time,
// start = end - elapsed) plus the benchmark's spans around each public
// call, links parents by containment, computes self times and writes
// Chrome trace-event JSON. Timed runs never install it.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int thread = 0;  // 0 = the benchmark's main thread
  int64_t request_id = -1;
  int parent = -1;  // index into the collected span list
  int64_t self_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;
  ~TraceRecorder();

  /// Installs the util::SetTraceHook hook and makes the calling thread the
  /// main thread. Spans recorded before Install are dropped.
  void Install();
  /// Removes the hook (idempotent).
  void Uninstall();

  /// A benchmark span around a call into one layer; `request_id` is the
  /// table index (or the first table of a batch).
  class Span {
   public:
    Span(TraceRecorder* recorder, const char* name, int64_t request_id);
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span();

   private:
    TraceRecorder* recorder_;
    const char* name_;
    int64_t request_id_;
    int64_t enclosing_id_;  // restored on exit
    int64_t start_ns_;
  };

  /// All spans recorded so far, sorted by (thread, start), with parents,
  /// request ids (inherited from the nearest ancestor when the program did
  /// not know it) and self times filled in.
  std::vector<SpanRecord> Collect();

 private:
  friend class Span;
  void Record(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t request_id);
};

/// Sum of self time per span name, in ms.
std::map<std::string, double> SelfMsByName(const std::vector<SpanRecord>& spans);

/// The layer a span name belongs to (util, table, text+table, transformer,
/// core, bench).
std::string LayerOf(const std::string& span_name);

/// Writes the spans as Chrome trace-event JSON ("X" events; args carry the
/// request id and parent). Returns false when the file cannot be written.
bool WriteChromeTrace(const std::vector<SpanRecord>& spans,
                      const std::string& path);

/// Monotonic clock in ns (steady_clock).
int64_t NowNs();
/// CPU time of this process, all threads, in ns (CLOCK_PROCESS_CPUTIME_ID).
int64_t ProcessCpuNs();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
