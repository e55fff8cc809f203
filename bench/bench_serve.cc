// Serving throughput/latency report (DESIGN §12): a loopback Server with
// its dynamic batcher, hammered by concurrent clients, once per
// max_batch_size in {1, 4, 16}. Reports tables/sec plus p50/p99 latency
// read back from the util::metrics histograms the server itself records
// (serve.e2e_us end-to-end, serve.inference_us per forward pass) — so the
// numbers printed here are the same ones a production STATS request would
// surface. batch=1 is the no-batching baseline; the batched rows show what
// request coalescing buys on the same replica pool.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "doduo/core/annotator.h"
#include "doduo/core/model.h"
#include "doduo/core/replica_pool.h"
#include "doduo/serve/client.h"
#include "doduo/serve/server.h"
#include "doduo/table/serializer.h"
#include "doduo/table/table.h"
#include "doduo/text/vocab.h"
#include "doduo/text/wordpiece_tokenizer.h"
#include "doduo/util/env.h"
#include "doduo/util/metrics.h"
#include "doduo/util/rng.h"
#include "doduo/util/table_printer.h"

namespace {

using doduo::serve::BatcherOptions;
using doduo::serve::Client;
using doduo::serve::Server;
using doduo::serve::ServerOptions;

/// A small but trained-shape model: big enough that inference dominates
/// framing overhead, small enough that the full sweep runs in seconds.
struct BenchModel {
  BenchModel() {
    config.encoder.vocab_size = 120;
    config.encoder.max_positions = 128;
    config.encoder.hidden_dim = 32;
    config.encoder.num_heads = 4;
    config.encoder.ffn_dim = 64;
    config.encoder.num_layers = 2;
    config.encoder.dropout = 0.0f;
    config.serializer.max_total_tokens = 128;
    config.num_types = 8;
    config.num_relations = 0;
    config.tasks = doduo::core::TaskSet::kTypesOnly;
    for (const char* word : {"alpha", "beta", "gamma", "delta", "epsilon",
                             "zeta", "eta", "theta"}) {
      vocab.AddToken(word);
    }
    for (int i = 0; i < config.num_types; ++i) {
      type_vocab.AddLabel("type" + std::to_string(i));
    }
    doduo::util::Rng rng(1);
    model = std::make_unique<doduo::core::DoduoModel>(config, &rng);
    model->set_training(false);
    tokenizer = std::make_unique<doduo::text::WordPieceTokenizer>(&vocab);
    serializer = std::make_unique<doduo::table::TableSerializer>(
        tokenizer.get(), config.serializer);
  }

  doduo::core::DoduoConfig config;
  doduo::text::Vocab vocab;
  doduo::table::LabelVocab type_vocab;
  std::unique_ptr<doduo::core::DoduoModel> model;
  std::unique_ptr<doduo::text::WordPieceTokenizer> tokenizer;
  std::unique_ptr<doduo::table::TableSerializer> serializer;
};

doduo::table::Table MakeTable(int variant) {
  const char* words[] = {"alpha", "beta", "gamma", "delta",
                         "epsilon", "zeta", "eta", "theta"};
  doduo::table::Table table("bench-" + std::to_string(variant));
  const int v = variant & 7;
  table.AddColumn({"a", {words[v], words[(v + 1) & 7], words[(v + 5) & 7]}});
  table.AddColumn({"b", {words[(v + 2) & 7], words[(v + 6) & 7]}});
  table.AddColumn({"c", {words[(v + 3) & 7]}});
  return table;
}

struct RunResult {
  int completed = 0;
  int failed = 0;
  double seconds = 0.0;
  uint64_t p50_e2e_us = 0;
  uint64_t p99_e2e_us = 0;
  uint64_t p50_infer_us = 0;
  uint64_t batches = 0;
};

RunResult RunOnce(BenchModel* bench, int max_batch_size, int num_clients,
                  int requests_per_client) {
  // Fresh metrics per configuration so the histograms hold exactly this
  // run's samples — the quantiles below would otherwise mix batch sizes.
  doduo::util::ResetMetrics();

  doduo::core::ReplicaPool pool(bench->model.get(), bench->serializer.get(),
                                &bench->type_vocab, nullptr,
                                /*num_replicas=*/2);
  ServerOptions options;
  options.port = 0;
  options.batcher.max_batch_size = max_batch_size;
  options.batcher.max_wait_us = 500;
  options.batcher.max_queue_depth = 1024;
  options.batcher.num_workers = pool.num_replicas();
  Server server(&pool, options);
  auto started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "bench_serve: server start failed: %s\n",
                 started.ToString().c_str());
    return {};
  }

  std::atomic<int> completed{0};
  std::atomic<int> failed{0};
  const auto begin = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(num_clients));
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      auto client = Client::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failed.fetch_add(requests_per_client);
        return;
      }
      for (int r = 0; r < requests_per_client; ++r) {
        auto outcomes = client.value().AnnotateTypesRobust(MakeTable(c + r));
        (outcomes.ok() ? completed : failed).fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const auto end = std::chrono::steady_clock::now();
  server.Stop();

  RunResult result;
  result.completed = completed.load();
  result.failed = failed.load();
  result.seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - begin)
          .count();
  result.p50_e2e_us =
      doduo::util::ApproxQuantileMicros(
          *doduo::util::GetHistogram("serve.e2e_us"), 0.50);
  result.p99_e2e_us =
      doduo::util::ApproxQuantileMicros(
          *doduo::util::GetHistogram("serve.e2e_us"), 0.99);
  result.p50_infer_us =
      doduo::util::ApproxQuantileMicros(
          *doduo::util::GetHistogram("serve.inference_us"), 0.50);
  result.batches = doduo::util::GetCounter("serve.batches_total")->value();
  return result;
}

}  // namespace

int main() {
  const int num_clients = 8;
  const int requests_per_client = std::max(
      1, static_cast<int>(40 * doduo::util::ExperimentScale()));
  BenchModel bench;

  std::printf("bench_serve: %d clients x %d requests over loopback, "
              "2 replicas, 500us batching window\n",
              num_clients, requests_per_client);
  doduo::util::TablePrinter printer({"max_batch", "requests", "tables/sec",
                                     "p50_e2e_us", "p99_e2e_us",
                                     "p50_infer_us", "batches"});
  for (const int max_batch_size : {1, 4, 16}) {
    const RunResult r =
        RunOnce(&bench, max_batch_size, num_clients, requests_per_client);
    if (r.failed > 0 || r.completed == 0) {
      std::fprintf(stderr,
                   "bench_serve: batch=%d had %d failed responses\n",
                   max_batch_size, r.failed);
      return 1;
    }
    const double tables_per_sec =
        r.seconds > 0.0 ? static_cast<double>(r.completed) / r.seconds : 0.0;
    char rate[32];
    std::snprintf(rate, sizeof(rate), "%.1f", tables_per_sec);
    printer.AddRow({std::to_string(max_batch_size),
                    std::to_string(r.completed), rate,
                    std::to_string(r.p50_e2e_us),
                    std::to_string(r.p99_e2e_us),
                    std::to_string(r.p50_infer_us),
                    std::to_string(r.batches)});
  }
  std::printf("%s", printer.ToString().c_str());
  return 0;
}
