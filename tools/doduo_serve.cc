// doduo_serve — long-running annotation daemon (DESIGN §12).
//
//   doduo_serve --model <dir> [--host H] [--port P] [--replicas N]
//               [--max-batch N] [--queue-depth N] [--threads N]
//
// Loads a saved model directory once, builds a ReplicaPool (one immutable
// shared weight snapshot, per-replica forward workspaces), and serves the
// length-prefixed binary protocol of serve/protocol.h over TCP. An idle
// replica takes what is queued at once (up to --max-batch), so requests
// share a batch only while every replica is busy; a full queue rejects
// new requests with kResourceExhausted (backpressure).
//
// --replicas defaults to the compute pool size (DODUO_NUM_THREADS /
// --threads). Numeric flags parse strictly: a value that is not wholly an
// integer in range ("4x", "x", -1) exits 2 with a message, as do unknown
// flags and flags missing their value. Query live metrics with
// `doduo_cli stats --server host:port`.
// SIGINT/SIGTERM drain in-flight requests and exit cleanly.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "doduo/core/model_io.h"
#include "doduo/core/replica_pool.h"
#include "doduo/nn/quant.h"
#include "doduo/serve/server.h"
#include "doduo/util/env.h"
#include "doduo/util/string_util.h"
#include "doduo/util/thread_pool.h"

namespace {

// Polled by the main loop between Server::WaitFor ticks. The handler only
// stores a flag: Server::Stop() locks, and taking a lock (or spawning a
// thread) in async-signal context is undefined behavior — the main thread
// runs the actual shutdown.
std::atomic<bool> g_shutdown{false};

void HandleSignal(int /*signum*/) { g_shutdown.store(true); }

int Fail(const std::string& message, int exit_code = 1) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return exit_code;
}

constexpr int kIntMax = std::numeric_limits<int>::max();

/// Reads the value after the numeric flag at argv[*i] strictly
/// (util::ParseIntFlag) and advances *i past it. A bad value prints the
/// error and returns false, so main exits 2 before anything loads.
bool ReadIntFlag(char** argv, int* i, int min_value, int max_value,
                 int* out) {
  const char* flag = argv[*i];
  auto value =
      doduo::util::ParseIntFlag(flag, argv[++*i], min_value, max_value);
  if (!value.ok()) {
    std::fprintf(stderr, "error: %s\n", value.status().message().c_str());
    return false;
  }
  *out = static_cast<int>(value.value());
  return true;
}

const char* kUsage =
    "usage: doduo_serve --model <dir> [--host H] [--port P] [--replicas N]\n"
    "                   [--max-batch N] [--queue-depth N] [--threads N]\n";

/// doduo_serve's flags, every one of which takes a value.
bool TakesValue(const char* arg) {
  for (const char* name : {"--model", "--host", "--port", "--replicas",
                           "--max-batch", "--queue-depth", "--threads"}) {
    if (std::strcmp(arg, name) == 0) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string model_dir;
  doduo::serve::ServerOptions options;
  options.port = 8642;
  int replicas = 0;  // unset: the compute pool size
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--model") == 0 && has_value) {
      model_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--host") == 0 && has_value) {
      options.host = argv[++i];
    } else if (std::strcmp(argv[i], "--port") == 0 && has_value) {
      if (!ReadIntFlag(argv, &i, 0, 65535, &options.port)) return 2;
    } else if (std::strcmp(argv[i], "--replicas") == 0 && has_value) {
      if (!ReadIntFlag(argv, &i, 1, kIntMax, &replicas)) return 2;
    } else if (std::strcmp(argv[i], "--max-batch") == 0 && has_value) {
      if (!ReadIntFlag(argv, &i, 1, kIntMax,
                       &options.batcher.max_batch_size)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--queue-depth") == 0 && has_value) {
      if (!ReadIntFlag(argv, &i, 1, kIntMax,
                       &options.batcher.max_queue_depth)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--threads") == 0 && has_value) {
      int threads = 0;
      if (!ReadIntFlag(argv, &i, 1, kIntMax, &threads)) return 2;
      doduo::util::SetComputeThreads(threads);
    } else {
      // A mistyped or retired flag is a usage error that names the flag.
      return Fail(std::string(TakesValue(argv[i]) ? "missing value for flag '"
                                                  : "unknown flag '") +
                      argv[i] + "'",
                  2);
    }
  }
  if (model_dir.empty()) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  auto loaded = doduo::core::LoadModelDir(model_dir);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  doduo::core::LoadedModel& m = *loaded.value();

  if (replicas <= 0) {
    replicas = doduo::util::ComputePool()->num_threads();
  }
  doduo::core::ReplicaPool pool(m.model.get(), m.serializer.get(), &m.types,
                                m.relation_vocab(), replicas);

  doduo::serve::Server server(&pool, options);
  if (doduo::util::Status started = server.Start(); !started.ok()) {
    return Fail(started.ToString());
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  std::printf("doduo_serve: %d replica(s), batch<=%d\n", pool.num_replicas(),
              options.batcher.max_batch_size);
  std::printf("doduo_serve: int8 %s (kernel %s, DODUO_QUANT)\n",
              doduo::nn::QuantEnabled() ? "on" : "off",
              doduo::nn::Int8KernelName());
  std::printf("listening on %s:%d\n", options.host.c_str(), server.port());
  std::fflush(stdout);

  // Park until a signal arrives or someone else stopped the server. The
  // 200ms tick is the signal-to-shutdown latency bound.
  while (!g_shutdown.load() && !server.WaitFor(/*timeout_us=*/200 * 1000)) {
  }
  server.Stop();
  std::printf("doduo_serve: drained, exiting\n");
  return 0;
}
