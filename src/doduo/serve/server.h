#ifndef DODUO_SERVE_SERVER_H_
#define DODUO_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "doduo/core/replica_pool.h"
#include "doduo/serve/batcher.h"
#include "doduo/serve/protocol.h"
#include "doduo/serve/socket_io.h"
#include "doduo/util/metrics.h"
#include "doduo/util/mutex.h"
#include "doduo/util/status.h"
#include "doduo/util/thread_annotations.h"

namespace doduo::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; read the assigned port back with port().
  int port = 0;
  int backlog = 64;
  BatcherOptions batcher;
};

/// The doduo_serve daemon core (DESIGN §12): a TCP listener speaking the
/// protocol.h frame format, thread-per-connection readers, and a
/// DynamicBatcher that coalesces annotate requests across connections onto
/// the ReplicaPool.
///
/// Concurrency shape: the accept thread only accepts; each connection gets
/// a reader thread that decodes frames and answers pings/stats inline;
/// annotate requests are handed to the batcher, whose worker threads invoke
/// a completion callback that writes the response frame back under the
/// connection's write mutex (responses to pipelined requests may therefore
/// interleave out of submission order — clients match on request id).
/// Every loop polls with a short timeout so Stop() converges without
/// tearing sockets out from under readers; Stop() drains the batcher, so
/// every accepted request is answered before the listener goes away.
class Server {
 public:
  /// `replicas` must outlive the server.
  Server(core::ReplicaPool* replicas, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the accept thread. Fails (without leaking
  /// threads) when the address cannot be bound.
  [[nodiscard]] util::Status Start();

  /// The bound port (valid after a successful Start).
  int port() const { return port_; }

  /// Stops accepting, winds down connections, and drains the batcher.
  /// Idempotent; also run by the destructor.
  void Stop();

  /// Blocks until Stop() is called (daemon main threads park here).
  void Wait();

  /// Waits at most `timeout_us` for Stop() to complete; returns true once
  /// stopped. The daemon main loop polls this between checks of its
  /// async-signal shutdown flag (signal handlers must not call Stop(),
  /// which locks).
  bool WaitFor(int64_t timeout_us);

  /// Connections accepted over the server's lifetime.
  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }

  /// Connection threads not yet joined: the open connections plus those
  /// closed since the accept loop's last accept or poll tick.
  size_t connections_live() const;

 private:
  struct Connection;
  struct ConnectionThread;

  void AcceptLoop();
  void ConnectionLoop(std::shared_ptr<Connection> conn);
  /// Handles one decoded frame; false => close the connection.
  bool HandleFrame(const std::shared_ptr<Connection>& conn, Frame frame);

  core::ReplicaPool* replicas_;
  ServerOptions options_;
  DynamicBatcher batcher_;
  UniqueFd listen_fd_;
  int port_ = -1;

  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> connections_accepted_{0};
  std::thread accept_thread_;
  mutable util::Mutex conn_mu_{"serve.server.conn"};
  std::vector<std::unique_ptr<ConnectionThread>> connection_threads_
      DODUO_GUARDED_BY(conn_mu_);
  util::Mutex stop_mu_{"serve.server.stop"};
  util::CondVar stop_cv_;
  bool stopped_ DODUO_GUARDED_BY(stop_mu_) = false;

  util::Histogram* e2e_us_;
  util::Counter* protocol_errors_;
};

}  // namespace doduo::serve

#endif  // DODUO_SERVE_SERVER_H_
