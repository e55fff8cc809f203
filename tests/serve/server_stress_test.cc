// Loopback integration tests for the annotation server (DESIGN §12): N
// concurrent client threads hammer one Server instance; every request must
// get exactly one response, byte-identical to what a sequential Annotator
// produces for the same table. Runs clean under -DDODUO_TSAN=ON
// (tools/check.sh wires this binary into the TSan stage).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "doduo/serve/client.h"
#include "doduo/serve/server.h"
#include "doduo/serve/socket_io.h"
#include "doduo/util/metrics.h"
#include "gtest/gtest.h"
#include "serve/serve_test_util.h"

namespace doduo::serve {
namespace {

constexpr int kNumVariants = 4;

using Outcomes = std::vector<core::ColumnOutcome>;

/// A client that speaks raw frames, for payloads and frame types the
/// typed Client never produces.
class RawConnection {
 public:
  explicit RawConnection(int port) {
    auto fd = ConnectTcp("127.0.0.1", port);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    if (fd.ok()) fd_ = std::move(fd).value();
  }

  void Send(FrameType type, uint64_t id, const std::string& payload) {
    Frame frame;
    frame.type = type;
    frame.request_id = id;
    frame.payload = payload;
    std::string wire;
    ASSERT_TRUE(EncodeFrame(frame, &wire).ok());
    ASSERT_TRUE(SendAll(fd_.get(), wire.data(), wire.size()).ok());
  }

  /// The next frame from the server; false on EOF (or a 10 s silence).
  bool Receive(Frame* out) {
    char buffer[4096];
    for (;;) {
      auto more = decoder_.Next(out);
      if (!more.ok()) return false;
      if (more.value()) return true;
      auto received = RecvSome(fd_.get(), buffer, sizeof(buffer), 10000);
      if (!received.ok() || received.value().event != IoEvent::kData) {
        return false;
      }
      decoder_.Feed(std::string_view(buffer, received.value().bytes));
    }
  }

 private:
  UniqueFd fd_;
  FrameDecoder decoder_;
};

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(int replicas, BatcherOptions batcher) {
    pool_ = model_.MakePool(replicas);
    ServerOptions options;
    options.port = 0;  // ephemeral
    options.batcher = batcher;
    server_ = std::make_unique<Server>(pool_.get(), options);
    auto started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
    ASSERT_GT(server_->port(), 0);
  }

  /// Sequential ground truth, computed once per table variant.
  std::vector<Outcomes> GroundTruth() {
    std::vector<Outcomes> expected;
    core::Annotator annotator = model_.MakeAnnotator();
    for (int v = 0; v < kNumVariants; ++v) {
      expected.push_back(annotator.AnnotateTypesRobust(testing::MakeTable(v)));
    }
    return expected;
  }

  testing::TestModel model_;
  std::unique_ptr<core::ReplicaPool> pool_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, PingStatsAndAnnotateOverOneConnection) {
  BatcherOptions batcher;
  batcher.max_batch_size = 4;
  StartServer(/*replicas=*/1, batcher);
  auto client = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client.value().Ping().ok());

  const auto expected = GroundTruth();
  for (int v = 0; v < kNumVariants; ++v) {
    auto outcomes = client.value().AnnotateTypesRobust(testing::MakeTable(v));
    ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
    EXPECT_TRUE(testing::SameOutcomes(outcomes.value(),
                                      expected[static_cast<size_t>(v)]));
  }

  auto stats = client.value().Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // The per-stage batching histograms must be visible through STATS.
  EXPECT_NE(stats.value().find("serve.queue_wait_us"), std::string::npos);
  EXPECT_NE(stats.value().find("serve.inference_us"), std::string::npos);
  EXPECT_NE(stats.value().find("serve.e2e_us"), std::string::npos);
}

TEST_F(ServerTest, RobustAnnotateRoundTripsOutcomesAndThreshold) {
  BatcherOptions batcher;
  batcher.max_batch_size = 4;
  StartServer(/*replicas=*/1, batcher);
  auto client = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // A dirty table annotates per column over the wire: skip reason for the
  // null column, labels + confidence for the clean one, matching the local
  // robust path byte for byte.
  table::Table dirty("dirty");
  dirty.AddColumn({"void", {"", "null", "-"}});
  dirty.AddColumn({"a", {"alpha", "beta"}});
  core::Annotator annotator = model_.MakeAnnotator();
  const auto expected = annotator.AnnotateTypesRobust(dirty);
  auto outcomes = client.value().AnnotateTypesRobust(dirty);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ASSERT_EQ(outcomes.value().size(), expected.size());
  for (size_t c = 0; c < expected.size(); ++c) {
    EXPECT_EQ(outcomes.value()[c].labels, expected[c].labels);
    EXPECT_EQ(outcomes.value()[c].confidence, expected[c].confidence);
    EXPECT_EQ(outcomes.value()[c].skipped_reason, expected[c].skipped_reason);
  }

  // The abstention threshold travels on the wire: above 1.0 every
  // annotatable column must come back abstained.
  auto abstained = client.value().AnnotateTypesRobust(
      testing::MakeTable(0), /*sanitize=*/true, /*abstain_below=*/1.01);
  ASSERT_TRUE(abstained.ok()) << abstained.status().ToString();
  ASSERT_FALSE(abstained.value().empty());
  for (const core::ColumnOutcome& outcome : abstained.value()) {
    EXPECT_TRUE(outcome.abstained);
    EXPECT_TRUE(outcome.labels.empty());
  }

  // A zero-column table is not an error: it gets zero outcomes.
  auto empty = client.value().AnnotateTypesRobust(testing::MakeEmptyTable());
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(empty.value().empty());
}

TEST_F(ServerTest, MalformedTableGetsErrorAndConnectionStaysUsable) {
  BatcherOptions batcher;
  StartServer(/*replicas=*/1, batcher);
  std::string good;
  EncodeRobustRequestPayload(testing::MakeTable(0), true, 0.0, &good);
  // Well-framed requests whose payload the decoder rejects: an unknown
  // flag bit, a NaN threshold (the f64 at bytes [4, 12)), and a table cut
  // short.
  std::string bad_flags = good;
  bad_flags[0] = static_cast<char>(static_cast<uint8_t>(bad_flags[0]) | 0x02);
  std::string nan_threshold = good;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  uint64_t bits = 0;
  std::memcpy(&bits, &nan, sizeof(bits));
  for (int b = 0; b < 8; ++b) {
    nan_threshold[4 + b] = static_cast<char>((bits >> (8 * b)) & 0xFF);
  }
  const std::string truncated = good.substr(0, good.size() - 1);

  RawConnection conn(server_->port());
  uint64_t id = 0;
  for (const std::string& payload : {bad_flags, nan_threshold, truncated}) {
    conn.Send(FrameType::kAnnotateRobustRequest, ++id, payload);
    Frame reply;
    ASSERT_TRUE(conn.Receive(&reply)) << "request " << id;
    EXPECT_EQ(reply.type, FrameType::kErrorResponse);
    EXPECT_EQ(reply.status, util::StatusCode::kInvalidArgument);
    EXPECT_EQ(reply.request_id, id);
  }
  // Request-level failure, not connection-level: the next request works.
  conn.Send(FrameType::kAnnotateRobustRequest, ++id, good);
  Frame reply;
  ASSERT_TRUE(conn.Receive(&reply));
  ASSERT_EQ(reply.type, FrameType::kAnnotateRobustResponse);
  EXPECT_EQ(reply.request_id, id);
  auto outcomes = DecodeOutcomesPayload(reply.payload);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  EXPECT_TRUE(testing::SameOutcomes(outcomes.value(), GroundTruth()[0]));
}

TEST_F(ServerTest, RetiredPlainFrameTypesCloseTheConnectionButNotTheServer) {
  BatcherOptions batcher;
  StartServer(/*replicas=*/1, batcher);
  std::string table;
  EncodeTablePayload(testing::MakeTable(1), &table);
  // Ids 1 and 2 once carried a types-only annotate request/response; they
  // are now unknown frame types, a connection-fatal protocol error.
  for (const uint8_t retired : {1, 2}) {
    RawConnection conn(server_->port());
    conn.Send(static_cast<FrameType>(retired), 5, table);
    Frame reply;
    ASSERT_TRUE(conn.Receive(&reply)) << "type " << int{retired};
    EXPECT_EQ(reply.type, FrameType::kErrorResponse);
    EXPECT_EQ(reply.status, util::StatusCode::kInvalidArgument);
    EXPECT_NE(reply.payload.find("unknown frame type"), std::string::npos)
        << reply.payload;
    EXPECT_FALSE(conn.Receive(&reply)) << "connection stayed open";
  }
  // The server is still healthy for a well-behaved client.
  auto client = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client.value().Ping().ok());
  auto outcomes = client.value().AnnotateTypesRobust(testing::MakeTable(1));
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  EXPECT_TRUE(testing::SameOutcomes(outcomes.value(), GroundTruth()[1]));
}

TEST_F(ServerTest, GarbageBytesCloseTheConnectionButNotTheServer) {
  BatcherOptions batcher;
  StartServer(/*replicas=*/1, batcher);
  {
    // Raw socket: send non-protocol garbage, expect the server to hang up
    // without dying.
    auto fd = ConnectTcp("127.0.0.1", server_->port());
    ASSERT_TRUE(fd.ok());
    const std::string garbage = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_TRUE(SendAll(fd.value().get(), garbage.data(), garbage.size())
                    .ok());
    char buffer[1024];
    // Drain whatever error frame arrives until EOF — the close is the
    // contract, the best-effort error frame is a bonus.
    for (int i = 0; i < 100; ++i) {
      auto received =
          RecvSome(fd.value().get(), buffer, sizeof(buffer), 1000);
      ASSERT_TRUE(received.ok()) << received.status().ToString();
      if (received.value().event == IoEvent::kEof) break;
      ASSERT_NE(received.value().event, IoEvent::kTimeout) << "no close";
    }
  }
  {
    // Mid-frame disconnect: a valid header, then hang up before the
    // payload. The server must treat it as a clean truncation.
    Frame frame;
    frame.type = FrameType::kAnnotateRobustRequest;
    frame.request_id = 9;
    EncodeRobustRequestPayload(testing::MakeTable(1), true, 0.0,
                               &frame.payload);
    std::string wire;
    ASSERT_TRUE(EncodeFrame(frame, &wire).ok());
    auto fd = ConnectTcp("127.0.0.1", server_->port());
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(
        SendAll(fd.value().get(), wire.data(), kFrameHeaderBytes + 3).ok());
  }  // abrupt close
  // The server is still healthy for a well-behaved client.
  auto client = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client.value().Ping().ok());
}

TEST_F(ServerTest, ConcurrentClientsGetExactlyOneCorrectResponseEach) {
  // The acceptance bar: >= 8 concurrent clients, >= 500 total requests,
  // zero lost or duplicated responses, byte-identical output, TSan-clean.
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 64;  // 512 total
  BatcherOptions batcher;
  batcher.max_batch_size = 8;
  batcher.max_queue_depth = 1024;  // no rejections in this test
  StartServer(/*replicas=*/3, batcher);
  const auto expected = GroundTruth();

  std::atomic<int> correct{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        wrong.fetch_add(kRequestsPerClient);
        return;
      }
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const int variant = (c + r) % kNumVariants;
        auto outcomes =
            client.value().AnnotateTypesRobust(testing::MakeTable(variant));
        const bool match =
            outcomes.ok() &&
            testing::SameOutcomes(outcomes.value(),
                                  expected[static_cast<size_t>(variant)]);
        (match ? correct : wrong).fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  // Exactly one response per request (the synchronous client would hang,
  // not double-count, on a lost response — so completing all 512 with the
  // right bytes is the whole invariant).
  EXPECT_EQ(correct.load(), kClients * kRequestsPerClient);
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GE(server_->connections_accepted(), static_cast<uint64_t>(kClients));

  // The batcher ran: at least one batch (how many requests share a batch
  // depends on how often all three replicas were busy at once, so the
  // count is deliberately not pinned — scheduling noise must not flake
  // this test).
  auto stats = core::Annotator::StatsSnapshot();
  uint64_t batches = 0;
  uint64_t requests = 0;
  for (const auto& counter : stats.counters) {
    if (counter.name == "serve.batches_total") batches = counter.value;
    if (counter.name == "serve.requests_total") requests = counter.value;
  }
  EXPECT_GE(requests, static_cast<uint64_t>(kClients * kRequestsPerClient));
  EXPECT_GT(batches, 0u);
}

TEST_F(ServerTest, BackpressureRejectsWithResourceExhausted) {
  BatcherOptions batcher;
  batcher.max_batch_size = 2;
  batcher.max_queue_depth = 1;
  StartServer(/*replicas=*/1, batcher);

  // Hammer from several threads; with queue depth 1 some requests MUST be
  // rejected, and every rejection must carry kResourceExhausted while
  // every acceptance returns correct bytes.
  const auto expected = GroundTruth();
  std::atomic<int> ok_count{0};
  std::atomic<int> rejected{0};
  std::atomic<int> other{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      auto client = Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        other.fetch_add(32);
        return;
      }
      for (int r = 0; r < 32; ++r) {
        auto outcomes =
            client.value().AnnotateTypesRobust(testing::MakeTable(0));
        if (outcomes.ok() &&
            testing::SameOutcomes(outcomes.value(), expected[0])) {
          ok_count.fetch_add(1);
        } else if (outcomes.status().code() ==
                   util::StatusCode::kResourceExhausted) {
          rejected.fetch_add(1);
        } else {
          other.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok_count.load() + rejected.load(), 4 * 32);
  EXPECT_EQ(other.load(), 0);
  EXPECT_GT(ok_count.load(), 0);
}

TEST_F(ServerTest, StopDrainsInFlightRequestsBeforeExiting) {
  BatcherOptions batcher;
  batcher.max_batch_size = 16;
  batcher.max_queue_depth = 64;
  StartServer(/*replicas=*/1, batcher);
  const auto expected = GroundTruth();

  const uint64_t requests_before =
      util::GetCounter("serve.requests_total")->value();
  std::atomic<int> answered{0};
  std::thread client_thread([&] {
    auto client = Client::Connect("127.0.0.1", server_->port());
    if (!client.ok()) return;
    // One in-flight request; the server is stopped while it is queued or
    // running, and the drain must still answer it.
    auto outcomes = client.value().AnnotateTypesRobust(testing::MakeTable(2));
    if (outcomes.ok() && testing::SameOutcomes(outcomes.value(), expected[2])) {
      answered.fetch_add(1);
    }
  });
  // Wait until the request has been accepted by the batcher, then stop:
  // drain-on-stop must answer the accepted request rather than drop it.
  while (util::GetCounter("serve.requests_total")->value() ==
         requests_before) {
    std::this_thread::yield();
  }
  server_->Stop();
  client_thread.join();
  EXPECT_EQ(answered.load(), 1);
}

TEST_F(ServerTest, ClosedConnectionsAreReaped) {
  // Each connection thread keeps its stack until joined; a daemon that
  // joined them only at Stop would grow by one per client ever served.
  constexpr int kCycles = 200;
  StartServer(/*replicas=*/1, BatcherOptions{});
  size_t most_live = 0;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    auto client = Client::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE(client.value().Ping().ok());
    most_live = std::max(most_live, server_->connections_live());
  }  // each client closes at the end of its cycle
  EXPECT_GE(server_->connections_accepted(), static_cast<uint64_t>(kCycles));
  // Every accept reaps the threads of the connections closed before it,
  // so only the few still winding down add to the open one.
  EXPECT_LE(most_live, 16u);
  // With no more clients, the accept loop's poll tick reaps the rest.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server_->connections_live() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(server_->connections_live(), 0u);
}

}  // namespace
}  // namespace doduo::serve
