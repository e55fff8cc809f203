// Served annotation: open-loop load on a doduo_serve child process started
// as users start it (fp32 v2 checkpoint, --replicas 2, default batching),
// run inside the traced web_batch run. One generator thread pipelines
// robust frames over at most 4 loopback connections and matches responses
// by request id. Latency runs from each request's scheduled send time to
// its decoded response, on the benchmark's clock.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>

#include "doduo/nn/quant.h"
#include "doduo/serve/client.h"
#include "doduo/serve/protocol.h"
#include "doduo/serve/socket_io.h"
#include "doduo/synth/knowledge_base.h"
#include "doduo/util/csv.h"
#include "doduo/util/thread_pool.h"
#include "src/inputs.h"
#include "src/oracle.h"
#include "src/stats.h"
#include "src/trace.h"
#include "src/workloads.h"

extern char** environ;

namespace perfbench {

namespace {

namespace serve = doduo::serve;

constexpr int kDistinctTables = 512;
constexpr int kConnections = 4;
constexpr int kReplicas = 2;
constexpr int kSetupSpawns = 3;
constexpr int kWindows = 8;  // slices of a closed-loop phase
constexpr double kSloMs = 20.0;
constexpr double kMaxBatch = 8;  // doduo_serve's default --max-batch
constexpr double kLightRps = 200.0;
// About 70 % of the knee first measured on a 4-vCPU x86 VM (the rate where
// the median latency starts to climb, ~400 req/s; see perfbench/README.md),
// fixed so that runs stay comparable.
constexpr double kHeavyRps = 280.0;
// Ascending open-loop rates; max_rps is the highest that meets the SLO.
constexpr double kLadder[] = {50,  100, 150, 200, 250, 300,
                              350, 400, 450, 500, 600};
// Distinct seed stream for this workload's tables and arrivals.
constexpr uint64_t kServeSeedSalt = 0x5e12e5e12eULL;

/// A doduo_serve child process. Stop() (and the destructor) terminates it
/// and waits until it has exited.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Stop(); }

  /// Spawns the daemon on an ephemeral loopback port and waits for its
  /// first answered ping.
  bool Start(const std::string& bin, const std::string& model_dir, bool quant,
             std::string* error) {
    int fds[2];
    if (::pipe(fds) != 0) {
      *error = "pipe failed";
      return false;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::vector<std::string> env_strings;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "DODUO_QUANT=", 12) != 0) env_strings.push_back(*e);
    }
    env_strings.push_back(quant ? "DODUO_QUANT=1" : "DODUO_QUANT=0");
    std::vector<char*> envp;
    for (std::string& s : env_strings) envp.push_back(s.data());
    envp.push_back(nullptr);
    std::vector<std::string> args = {bin,        "--model", model_dir,
                                     "--host",   "127.0.0.1", "--port",
                                     "0",        "--replicas",
                                     std::to_string(kReplicas)};
    std::vector<char*> argv;
    for (std::string& s : args) argv.push_back(s.data());
    argv.push_back(nullptr);
    pid_t pid = -1;
    const int rc = posix_spawn(&pid, bin.c_str(), &actions, nullptr,
                               argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) {
      *error = "cannot spawn " + bin + ": " + std::strerror(rc);
      return false;
    }
    pid_ = pid;

    // "listening on 127.0.0.1:PORT" carries the ephemeral port.
    std::string out;
    const int64_t deadline = NowNs() + 30'000'000'000LL;
    while (port_ == 0 && NowNs() < deadline) {
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, 100) <= 0) continue;
      char buf[512];
      const ssize_t got = ::read(out_fd_, buf, sizeof(buf));
      if (got <= 0) break;
      out.append(buf, static_cast<size_t>(got));
      const size_t at = out.find("listening on ");
      if (at != std::string::npos) {
        const size_t eol = out.find('\n', at);
        if (eol == std::string::npos) continue;
        const size_t colon = out.rfind(':', eol);
        port_ = std::atoi(out.c_str() + colon + 1);
      }
    }
    if (port_ == 0) {
      *error = "doduo_serve did not report its port: " + out;
      return false;
    }
    while (NowNs() < deadline) {
      auto client = serve::Client::Connect("127.0.0.1", port_);
      if (client.ok() && client.value().Ping().ok()) return true;
      ::usleep(1000);
    }
    *error = "doduo_serve did not answer a ping";
    return false;
  }

  void Stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      const int64_t deadline = NowNs() + 10'000'000'000LL;
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (NowNs() > deadline) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        ::usleep(2000);
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
  }

  int port() const { return port_; }
  int pid() const { return pid_; }

 private:
  int pid_ = -1;
  int port_ = 0;
  int out_fd_ = -1;
};

/// One measured phase of traffic.
struct Phase {
  std::string name;
  double rate = 0.0;      // offered req/s (0 for the closed loop)
  double seconds = 0.0;   // schedule length
  size_t sent = 0;
  size_t ok = 0;
  size_t failed = 0;
  size_t rejected = 0;
  size_t mismatched = 0;
  size_t backlog_end = 0;  // outstanding when the schedule ended
  std::vector<double> latency_ms;  // successful requests
  std::vector<double> late_ms;     // generator lateness per send
  std::vector<double> window_rates;  // closed loop: completions/s per slice
  F1Tally f1;

  /// Latencies with every failed or rejected request as +inf (a miss).
  std::vector<double> WithMisses() const {
    std::vector<double> all = latency_ms;
    all.insert(all.end(), failed + rejected,
               std::numeric_limits<double>::infinity());
    return all;
  }
  /// p99 (misses included) within the SLO, and no more requests left in
  /// flight at the end of the schedule than one full batch plus what
  /// arrives within the SLO: more means the backlog was growing.
  bool MeetsSlo() const {
    const double allowed = kMaxBatch + rate * kSloMs / 1e3;
    return sent > 0 && Percentile(WithMisses(), 0.99) <= kSloMs &&
           static_cast<double>(backlog_end) <= allowed;
  }
};

/// The request mix: pre-encoded robust frames per (table, abstain) and the
/// oracle's expected outcomes for each.
struct RequestSet {
  std::vector<std::string> frames[2];  // [abstain_below == 0.5]
  std::vector<Outcomes> expected[2];
  std::vector<std::vector<std::vector<std::string>>> labels;
};

class LoadGenerator {
 public:
  LoadGenerator(RequestSet* requests, uint64_t seed)
      : requests_(requests), rng_(seed) {}

  bool Connect(int port) {
    conns_.clear();
    for (int c = 0; c < kConnections; ++c) {
      auto fd = serve::ConnectTcp("127.0.0.1", port);
      if (!fd.ok()) return false;
      // Pipelined frames go out as soon as they are written.
      const int one = 1;
      ::setsockopt(fd.value().get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      conns_.push_back(std::make_unique<Conn>());
      conns_.back()->fd = std::move(fd).value();
    }
    return true;
  }

  /// Poisson arrivals at `rate` for `seconds`, then drains.
  Phase OpenLoop(const std::string& name, double rate, double seconds) {
    Phase phase;
    phase.name = name;
    phase.rate = rate;
    phase.seconds = seconds;
    const std::vector<double> due_s = PoissonArrivals(rate, seconds, &rng_);
    Begin(due_s.size());
    const int64_t origin = NowNs() + 1'000'000;
    size_t next = 0;
    bool backlog_taken = false;
    int64_t drain_deadline = 0;
    for (;;) {
      int64_t now = NowNs();
      while (next < due_s.size() &&
             origin + static_cast<int64_t>(due_s[next] * 1e9) <= now) {
        const int64_t due = origin + static_cast<int64_t>(due_s[next] * 1e9);
        Send(next, due, &phase);
        phase.late_ms.push_back(static_cast<double>(NowNs() - due) / 1e6);
        ++next;
        now = NowNs();
      }
      if (next == due_s.size()) {
        if (!backlog_taken) {
          phase.backlog_end = outstanding_;
          backlog_taken = true;
          drain_deadline = now + 5'000'000'000LL;
        }
        if (outstanding_ == 0 || now > drain_deadline) break;
      }
      const int64_t wait_ns =
          next < due_s.size()
              ? origin + static_cast<int64_t>(due_s[next] * 1e9) - now
              : 10'000'000;
      Poll(std::max<int64_t>(0, wait_ns), &phase);
    }
    phase.failed += outstanding_;  // never answered
    outstanding_ = 0;
    return phase;
  }

  /// `window` requests in flight per connection for `seconds`. The rate is
  /// the median of the completion rates of kWindows equal slices.
  Phase ClosedLoop(const std::string& name, double seconds, int window) {
    Phase phase;
    phase.name = name;
    phase.seconds = seconds;
    Begin(1 << 20);
    size_t next = 0;
    for (int w = 0; w < window * kConnections; ++w) Send(next++, NowNs(), &phase);
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    const int64_t window_ns = static_cast<int64_t>(seconds * 1e9 / kWindows);
    int64_t window_end = start + window_ns;
    size_t window_base = 0;
    for (;;) {
      const int64_t now = NowNs();
      if (now >= window_end) {
        const size_t done = phase.ok + phase.failed + phase.rejected;
        phase.window_rates.push_back(static_cast<double>(done - window_base) *
                                     1e9 / static_cast<double>(window_ns));
        window_base = done;
        window_end += window_ns;
      }
      if (now >= end) break;
      const size_t before = phase.ok + phase.failed + phase.rejected;
      Poll(end - now, &phase);
      const size_t done = phase.ok + phase.failed + phase.rejected - before;
      for (size_t k = 0; k < done && next < inflight_.size(); ++k) {
        Send(next++, NowNs(), &phase);
      }
    }
    const int64_t drain_deadline = NowNs() + 5'000'000'000LL;
    while (outstanding_ > 0 && NowNs() < drain_deadline) {
      Poll(10'000'000, &phase);
    }
    phase.failed += outstanding_;
    outstanding_ = 0;
    phase.rate = Median(phase.window_rates);
    return phase;
  }

 private:
  struct Conn {
    serve::UniqueFd fd;
    serve::FrameDecoder decoder;
    int outstanding = 0;
  };
  struct InFlight {
    int64_t due_ns = 0;
    uint32_t table = 0;
    uint8_t abstain = 0;
    int8_t conn = -1;
  };

  void Begin(size_t capacity) {
    base_id_ = next_id_;
    inflight_.assign(capacity, InFlight{});
  }

  void Send(size_t index, int64_t due_ns, Phase* phase) {
    InFlight& f = inflight_[index];
    f.due_ns = due_ns;
    f.table = static_cast<uint32_t>(
        rng_.NextUint64(requests_->frames[0].size()));
    f.abstain = rng_.Bernoulli(0.5) ? 1 : 0;
    size_t best = 0;
    for (size_t c = 1; c < conns_.size(); ++c) {
      if (conns_[c]->outstanding < conns_[best]->outstanding) best = c;
    }
    f.conn = static_cast<int8_t>(best);
    std::string& frame = requests_->frames[f.abstain][f.table];
    const uint64_t id = base_id_ + index;
    for (int b = 0; b < 8; ++b) {
      frame[8 + static_cast<size_t>(b)] = static_cast<char>((id >> (8 * b)) & 0xff);
    }
    ++phase->sent;
    if (!serve::SendAll(conns_[best]->fd.get(), frame.data(), frame.size()).ok()) {
      ++phase->failed;
      f.conn = -1;
      return;
    }
    ++conns_[best]->outstanding;
    ++outstanding_;
    next_id_ = std::max(next_id_, id + 1);
  }

  void Poll(int64_t wait_ns, Phase* phase) {
    std::vector<pollfd> fds;
    for (const auto& conn : conns_) fds.push_back({conn->fd.get(), POLLIN, 0});
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return;
    for (size_t c = 0; c < fds.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& conn = *conns_[c];
      char buf[1 << 16];
      auto got = serve::RecvSome(conn.fd.get(), buf, sizeof(buf), 0);
      if (!got.ok() || got.value().event != serve::IoEvent::kData) continue;
      // Acknowledge at once (Linux clears TCP_QUICKACK after use). The
      // generator multiplexes many independent users onto 4 connections;
      // a delayed ACK here would hold the server's next small response in
      // its Nagle buffer for up to 40 ms, a stall that one-request-per-
      // connection users never see.
      const int one = 1;
      ::setsockopt(conn.fd.get(), IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
      conn.decoder.Feed(std::string_view(buf, got.value().bytes));
      serve::Frame frame;
      for (;;) {
        auto more = conn.decoder.Next(&frame);
        if (!more.ok() || !more.value()) break;
        Complete(frame, &conn, phase);
      }
    }
  }

  void Complete(const serve::Frame& frame, Conn* conn, Phase* phase) {
    const int64_t now = NowNs();
    if (frame.request_id < base_id_ ||
        frame.request_id - base_id_ >= inflight_.size()) {
      return;  // a straggler from an earlier phase
    }
    InFlight& f = inflight_[frame.request_id - base_id_];
    if (f.conn < 0) return;
    f.conn = -1;
    --conn->outstanding;
    --outstanding_;
    if (frame.type == serve::FrameType::kAnnotateRobustResponse) {
      auto outcomes = serve::DecodeOutcomesPayload(frame.payload);
      if (!outcomes.ok()) {
        ++phase->failed;
        return;
      }
      ++phase->ok;
      phase->latency_ms.push_back(static_cast<double>(now - f.due_ns) / 1e6);
      if (CountMismatches(outcomes.value(),
                          requests_->expected[f.abstain][f.table]) > 0) {
        ++phase->mismatched;
      }
      phase->f1.Add(outcomes.value(), requests_->labels[f.table]);
    } else if (frame.status == doduo::util::StatusCode::kResourceExhausted) {
      ++phase->rejected;
    } else {
      ++phase->failed;
    }
  }

  RequestSet* requests_;
  doduo::util::Rng rng_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<InFlight> inflight_;
  uint64_t base_id_ = 1;
  uint64_t next_id_ = 1;
  size_t outstanding_ = 0;
};

MetricReading ServerStats(int port) {
  auto client = serve::Client::Connect("127.0.0.1", port);
  if (!client.ok()) return {};
  auto stats = client.value().Stats();
  return stats.ok() ? ParseMetricsJson(stats.value()) : MetricReading{};
}

std::string PhaseLine(const Phase& p) {
  return Format("%-10s rate %7.1f/s  sent %zu ok %zu failed %zu rejected %zu "
                "mismatched %zu backlog_end %zu  late p99 %.3f ms  %s",
                p.name.c_str(), p.rate, p.sent, p.ok, p.failed, p.rejected,
                p.mismatched, p.backlog_end, Percentile(p.late_ms, 0.99),
                FormatSummary(Summarize(p.WithMisses())).c_str());
}

double HistMeanMs(const MetricReading& d, const std::string& name) {
  const double count = d.hist_count(name);
  return count > 0 ? d.hist_sum_us(name) / count / 1e3 : 0.0;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& ServeMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"serve.setup_s", "s"},
      {"serve.tables_per_s", "tables/s"},
      {"serve.p50_ms.light", "ms"},
      {"serve.p99_ms.light", "ms"},
      {"serve.p50_ms.heavy", "ms"},
      {"serve.p99_ms.heavy", "ms"},
      {"serve.max_rps", "req/s"},
      {"serve.rss_mb", "MB"},
      {"serve.type_f1", "ratio"},
      {"serve.queue_wait_ms", "ms"},
      {"serve.queue_wait_ms.light", "ms"},
      {"serve.batch_assembly_ms", "ms"},
      {"serve.inference_ms", "ms"},
      {"serve.encoder_ms", "ms"},
      {"serve.busy_share", "ratio"},
      {"serve.batch_size", "requests"},
      {"serve.rejected", "count"},
      {"serve.fallbacks", "count"},
      {"serve.wire_ms", "ms"},
      {"gen.late_ms.p99", "ms"},
  };
  return names;
}

void AddServeMetrics(const RunConfig& config, Report* report) {
  const doduo::synth::KnowledgeBase kb =
      doduo::synth::KnowledgeBase::BuildWikiTableKb(kModelKbSeed);
  const std::vector<BenchTable> inputs =
      GenerateWebTables(kb, config.seed ^ kServeSeedSalt, kDistinctTables);
  auto fail = [&](const std::string& why) {
    report->Line("error: served annotation: " + why);
    report->correct = false;
  };

  // Client side: CSV text -> table -> robust request frame once per table
  // and abstention setting; expected outcomes from a local single-thread
  // AnnotateTypesRobust pass on the same checkpoint.
  auto fp32 = doduo::core::LoadModelDir(config.model_dir);
  if (!fp32.ok()) return fail(fp32.status().ToString());
  RequestSet requests;
  doduo::util::SetComputeThreads(1);
  doduo::nn::SetQuantEnabled(false);
  const doduo::core::Annotator annotator = fp32.value()->MakeAnnotator();
  std::vector<doduo::table::Table> tables(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (!ParseTable(inputs[i].csv, inputs[i].id, &tables[i])) {
      return fail("unparsable CSV " + inputs[i].id);
    }
    Outcomes base = annotator.AnnotateTypesRobust(tables[i]);
    Outcomes abstained = base;
    for (auto& o : abstained) doduo::core::ApplyAbstention(&o, 0.5);
    for (int a = 0; a < 2; ++a) {
      serve::Frame frame;
      frame.type = serve::FrameType::kAnnotateRobustRequest;
      serve::EncodeRobustRequestPayload(tables[i], true, a == 1 ? 0.5 : 0.0,
                                        &frame.payload);
      std::string wire;
      if (!serve::EncodeFrame(frame, &wire).ok()) return fail("frame too big");
      requests.frames[a].push_back(std::move(wire));
    }
    requests.expected[0].push_back(std::move(base));
    requests.expected[1].push_back(std::move(abstained));
    requests.labels.push_back(inputs[i].labels);
  }
  doduo::util::SetComputeThreads(kReplicas);

  // Set-up: spawn to first answered ping, median of several spawns; the
  // last daemon serves the measured traffic.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  std::string error;
  for (int s = 0; s < kSetupSpawns; ++s) {
    daemon = std::make_unique<Daemon>();
    const int64_t t0 = NowNs();
    if (!daemon->Start(config.serve_bin, config.model_dir, false, &error)) {
      return fail(error);
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (s + 1 < kSetupSpawns) daemon->Stop();
  }
  LoadGenerator gen(&requests, config.seed ^ kServeSeedSalt ^ 1);
  if (!gen.Connect(daemon->port())) return fail("cannot connect");

  const double S = config.seconds;
  (void)gen.OpenLoop("warmup", kLightRps, 0.3);
  const MetricReading s0 = ServerStats(daemon->port());
  const Phase light = gen.OpenLoop("light", kLightRps, 0.3 * S);
  const MetricReading s1 = ServerStats(daemon->port());
  const Phase heavy = gen.OpenLoop("heavy", kHeavyRps, 0.2 * S);
  const MetricReading s2 = ServerStats(daemon->port());
  std::vector<Phase> phases = {light, heavy};
  double max_rps = 0;
  for (double rate : kLadder) {
    Phase step = gen.OpenLoop(Format("ladder%.0f", rate), rate, S / 40);
    const bool pass = step.MeetsSlo();
    phases.push_back(std::move(step));
    if (!pass) break;
    max_rps = rate;
  }
  phases.push_back(gen.ClosedLoop("saturate", 0.1 * S, 16));
  const double saturated = phases.back().rate;
  const double rss_mb = PeakRssMb(daemon->pid());
  const MetricReading load_stats = ServerStats(daemon->port());
  daemon->Stop();

  size_t failed = 0, rejected = 0, mismatched = 0;
  for (const Phase& p : phases) {
    report->attempted += p.sent;
    failed += p.failed;
    rejected += p.rejected;
    mismatched += p.mismatched;
    report->Line(PhaseLine(p));
  }
  report->failed += failed + rejected + mismatched;
  if (failed + rejected + mismatched > 0) report->correct = false;
  report->Line(Format("served: failed %zu, rejected %zu, oracle mismatches "
                      "%zu; max_rps = highest ladder rate with p99 <= %.0f ms "
                      "and no growing backlog",
                      failed, rejected, mismatched, kSloMs));

  const MetricReading dl = Delta(s1, s0);
  const MetricReading dh = Delta(s2, s1);
  const MetricReading dall = Delta(s2, s0);
  F1Tally f1;
  f1.tp = light.f1.tp + heavy.f1.tp;
  f1.fp = light.f1.fp + heavy.f1.fp;
  f1.fn = light.f1.fn + heavy.f1.fn;
  std::vector<double> client_ms = light.latency_ms;
  client_ms.insert(client_ms.end(), heavy.latency_ms.begin(),
                   heavy.latency_ms.end());
  std::vector<double> late = light.late_ms;
  late.insert(late.end(), heavy.late_ms.begin(), heavy.late_ms.end());
  const double served = static_cast<double>(light.ok + heavy.ok);
  const double encoder_us = dall.hist_sum_us("model.encoder_forward_us");

  report->Add("serve.setup_s", Median(setup_s), "s");
  report->Add("serve.tables_per_s", saturated, "tables/s");
  report->Add("serve.p50_ms.light", Percentile(light.WithMisses(), 0.5), "ms");
  report->Add("serve.p99_ms.light", Percentile(light.WithMisses(), 0.99), "ms");
  report->Add("serve.p50_ms.heavy", Percentile(heavy.WithMisses(), 0.5), "ms");
  report->Add("serve.p99_ms.heavy", Percentile(heavy.WithMisses(), 0.99), "ms");
  report->Add("serve.max_rps", max_rps, "req/s");
  report->Add("serve.rss_mb", rss_mb, "MB");
  report->Add("serve.type_f1", f1.F1(), "ratio");
  report->Add("serve.queue_wait_ms", HistMeanMs(dh, "serve.queue_wait_us"), "ms");
  report->Add("serve.queue_wait_ms.light", HistMeanMs(dl, "serve.queue_wait_us"),
              "ms");
  report->Add("serve.batch_assembly_ms",
              HistMeanMs(dh, "serve.batch_assembly_us"), "ms");
  report->Add("serve.inference_ms", HistMeanMs(dh, "serve.inference_us"), "ms");
  report->Add("serve.encoder_ms",
              served > 0 ? encoder_us / 1e3 / served : 0.0, "ms");
  report->Add("serve.busy_share",
              encoder_us / 1e6 / ((light.seconds + heavy.seconds) * kReplicas),
              "ratio");
  // serve.batch_size records each batch's size in the histogram's value.
  report->Add("serve.batch_size",
              dh.hist_count("serve.batch_size") > 0
                  ? dh.hist_sum_us("serve.batch_size") /
                        dh.hist_count("serve.batch_size")
                  : 0.0,
              "requests");
  report->Add("serve.rejected", dall.counter("serve.requests_rejected"), "count");
  report->Add("serve.fallbacks", dall.counter("serve.batch_fallbacks"), "count");
  report->Add("serve.wire_ms", Mean(client_ms) - HistMeanMs(dall, "serve.e2e_us"),
              "ms");
  report->Add("gen.late_ms.p99", Percentile(late, 0.99), "ms");
  report->Line(Format("served load: daemon checkpoint load %.3f ms, %.2f MB "
                      "mapped, %.2f MB copied",
                      HistMeanMs(load_stats, "load.checkpoint_us"),
                      load_stats.counter("load.bytes_mapped") / 1e6,
                      load_stats.counter("load.bytes_copied") / 1e6));
}

}  // namespace perfbench
