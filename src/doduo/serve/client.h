#ifndef DODUO_SERVE_CLIENT_H_
#define DODUO_SERVE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "doduo/core/annotator.h"
#include "doduo/serve/protocol.h"
#include "doduo/serve/socket_io.h"
#include "doduo/table/table.h"
#include "doduo/util/status.h"

namespace doduo::serve {

/// Synchronous client for a doduo_serve endpoint: one TCP connection, one
/// outstanding request at a time (request ids still increment, so traffic
/// from a pipelining client stays matchable). Not thread-safe; give each
/// thread its own Client.
class Client {
 public:
  /// Connects to host:port.
  [[nodiscard]] static util::Result<Client> Connect(const std::string& host,
                                                    int port);

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  /// Round-trips one table: every column comes back as a ColumnOutcome
  /// (labels + calibrated confidence, abstention below `abstain_below`, or
  /// a machine-readable skip reason). Only transport or backpressure
  /// failures produce a non-OK Result; a server-side kErrorResponse comes
  /// back as its Status.
  [[nodiscard]] util::Result<std::vector<core::ColumnOutcome>>
  AnnotateTypesRobust(const table::Table& table, bool sanitize = true,
                      double abstain_below = 0.0);

  /// Fetches the server's util::MetricsToJson() dump.
  [[nodiscard]] util::Result<std::string> Stats();

  /// Round-trips a ping frame (liveness + framing check).
  [[nodiscard]] util::Status Ping();

 private:
  explicit Client(UniqueFd fd) : fd_(std::move(fd)) {}

  /// Sends `request` (stamping a fresh id) and blocks for the response
  /// carrying the same id. `expected` is the success frame type; an
  /// kErrorResponse is surfaced as its embedded Status.
  [[nodiscard]] util::Result<Frame> RoundTrip(Frame request,
                                              FrameType expected);

  UniqueFd fd_;
  FrameDecoder decoder_;
  uint64_t next_request_id_ = 1;
};

}  // namespace doduo::serve

#endif  // DODUO_SERVE_CLIENT_H_
