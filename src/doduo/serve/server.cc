#include "doduo/serve/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "doduo/serve/protocol.h"
#include "doduo/util/logging.h"
#include "doduo/util/mutex.h"

namespace doduo::serve {

namespace {

using util::Status;

constexpr int kPollMs = 100;  // stop-flag check cadence for blocking loops
constexpr size_t kRecvChunkBytes = 64 * 1024;

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

/// One accepted client. Shared between the reader thread and in-flight
/// batcher callbacks; the fd closes when the last reference drops, so a
/// response never races a close.
struct Server::Connection {
  explicit Connection(UniqueFd in_fd) : fd(std::move(in_fd)) {}

  /// Serializes and writes one frame. Concurrent callers (reader thread vs.
  /// batcher callbacks) interleave whole frames, never bytes.
  void WriteFrame(const Frame& frame) {
    std::string wire;
    if (Status s = EncodeFrame(frame, &wire); !s.ok()) {
      DODUO_LOG(Warning) << "dropping unencodable response frame: "
                         << s.ToString();
      return;
    }
    util::MutexLock lock(&write_mu);
    if (Status s = SendAll(fd.get(), wire.data(), wire.size()); !s.ok()) {
      // The peer hung up mid-conversation; its reader loop will see the
      // close too, so just note it.
      DODUO_LOG(Debug) << "response write failed: " << s.ToString();
    }
  }

  UniqueFd fd;  // never reassigned after construction; safe to read
  util::Mutex write_mu{"serve.connection.write"};
};

Server::Server(core::ReplicaPool* replicas, ServerOptions options)
    : replicas_(replicas),
      options_(std::move(options)),
      batcher_(replicas, options_.batcher),
      e2e_us_(util::GetHistogram("serve.e2e_us")),
      protocol_errors_(util::GetCounter("serve.protocol_errors")) {}

Server::~Server() { Stop(); }

util::Status Server::Start() {
  auto listener = ListenTcp(options_.host, options_.port, options_.backlog);
  if (!listener.ok()) return listener.status();
  listen_fd_ = std::move(listener).value();
  auto port = LocalPort(listen_fd_.get());
  if (!port.ok()) return port.status();
  port_ = port.value();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void Server::Stop() {
  if (stopping_.exchange(true)) {
    // Already stopped (or stopping on another thread); just wait it out.
    Wait();
    return;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    util::MutexLock lock(&conn_mu_);
    for (std::thread& t : connection_threads_) t.join();
    connection_threads_.clear();
  }
  // Readers are gone; drain every accepted request. Callbacks still hold
  // their Connection references, so the drained responses reach the wire.
  batcher_.Stop();
  {
    util::MutexLock lock(&stop_mu_);
    stopped_ = true;
  }
  stop_cv_.NotifyAll();
}

void Server::Wait() {
  util::MutexLock lock(&stop_mu_);
  while (!stopped_) stop_cv_.Wait(&stop_mu_);
}

bool Server::WaitFor(int64_t timeout_us) {
  util::MutexLock lock(&stop_mu_);
  if (!stopped_) (void)stop_cv_.WaitFor(&stop_mu_, timeout_us);
  return stopped_;
}

void Server::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    auto accepted = AcceptWithTimeout(listen_fd_.get(), kPollMs);
    if (!accepted.ok()) {
      DODUO_LOG(Warning) << "accept failed: " << accepted.status().ToString();
      continue;
    }
    if (!accepted.value().valid()) continue;  // timeout tick
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_shared<Connection>(std::move(accepted).value());
    util::MutexLock lock(&conn_mu_);
    connection_threads_.emplace_back(
        [this, conn = std::move(conn)]() mutable {
          ConnectionLoop(std::move(conn));
        });
  }
}

void Server::ConnectionLoop(std::shared_ptr<Connection> conn) {
  FrameDecoder decoder;
  char chunk[kRecvChunkBytes];
  while (!stopping_.load(std::memory_order_relaxed)) {
    auto received = RecvSome(conn->fd.get(), chunk, sizeof(chunk), kPollMs);
    if (!received.ok()) {
      DODUO_LOG(Debug) << "connection read failed: "
                       << received.status().ToString();
      return;
    }
    if (received.value().event == IoEvent::kEof) return;
    if (received.value().event == IoEvent::kTimeout) continue;
    decoder.Feed(std::string_view(chunk, received.value().bytes));
    for (;;) {
      Frame frame;
      auto more = decoder.Next(&frame);
      if (!more.ok()) {
        // Protocol violation: answer once (best effort) and hang up.
        protocol_errors_->Increment();
        Frame error;
        error.type = FrameType::kErrorResponse;
        error.status = more.status().code();
        error.request_id = frame.request_id;
        error.payload = more.status().message();
        conn->WriteFrame(error);
        return;
      }
      if (!more.value()) break;
      if (!HandleFrame(conn, std::move(frame))) return;
    }
  }
}

bool Server::HandleFrame(const std::shared_ptr<Connection>& conn,
                         Frame frame) {
  switch (frame.type) {
    case FrameType::kPingRequest: {
      Frame reply;
      reply.type = FrameType::kPingResponse;
      reply.request_id = frame.request_id;
      reply.payload = std::move(frame.payload);
      conn->WriteFrame(reply);
      return true;
    }
    case FrameType::kStatsRequest: {
      Frame reply;
      reply.type = FrameType::kStatsResponse;
      reply.request_id = frame.request_id;
      reply.payload = util::MetricsToJson();
      conn->WriteFrame(reply);
      return true;
    }
    case FrameType::kAnnotateRobustRequest: {
      auto decoded = DecodeRobustRequestPayload(frame.payload);
      if (!decoded.ok()) {
        // Well-framed but malformed payload: a request-level error. The
        // connection stays usable.
        Frame reply;
        reply.type = FrameType::kErrorResponse;
        reply.status = decoded.status().code();
        reply.request_id = frame.request_id;
        reply.payload = decoded.status().message();
        conn->WriteFrame(reply);
        return true;
      }
      RobustRequest request = std::move(decoded).value();
      const int64_t start_us = SteadyNowUs();
      const uint64_t request_id = frame.request_id;
      util::Histogram* e2e_us = e2e_us_;
      batcher_.Submit(
          request_id, std::move(request.table), request.sanitize,
          request.abstain_below,
          [conn, request_id, start_us,
           e2e_us](util::Result<std::vector<core::ColumnOutcome>> result) {
            Frame reply;
            reply.request_id = request_id;
            if (result.ok()) {
              reply.type = FrameType::kAnnotateRobustResponse;
              EncodeOutcomesPayload(result.value(), &reply.payload);
            } else {
              // Only batcher-level backpressure lands here; annotation
              // itself never fails a table.
              reply.type = FrameType::kErrorResponse;
              reply.status = result.status().code();
              reply.payload = result.status().message();
            }
            conn->WriteFrame(reply);
            e2e_us->Record(static_cast<uint64_t>(
                std::max<int64_t>(0, SteadyNowUs() - start_us)));
          });
      return true;
    }
    default: {
      // A client must not send response-typed frames; treat as a protocol
      // violation and close.
      protocol_errors_->Increment();
      Frame reply;
      reply.type = FrameType::kErrorResponse;
      reply.status = util::StatusCode::kInvalidArgument;
      reply.request_id = frame.request_id;
      reply.payload = "unexpected frame type from client";
      conn->WriteFrame(reply);
      return false;
    }
  }
}

}  // namespace doduo::serve
