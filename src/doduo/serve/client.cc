#include "doduo/serve/client.h"

#include <utility>

namespace doduo::serve {

namespace {

using util::Status;

constexpr size_t kRecvChunkBytes = 64 * 1024;

}  // namespace

util::Result<Client> Client::Connect(const std::string& host, int port) {
  auto fd = ConnectTcp(host, port);
  if (!fd.ok()) return fd.status();
  return Client(std::move(fd).value());
}

util::Result<Frame> Client::RoundTrip(Frame request, FrameType expected) {
  request.request_id = next_request_id_++;
  std::string wire;
  if (Status s = EncodeFrame(request, &wire); !s.ok()) return s;
  if (Status s = SendAll(fd_.get(), wire.data(), wire.size()); !s.ok()) {
    return s;
  }
  char chunk[kRecvChunkBytes];
  for (;;) {
    Frame frame;
    auto more = decoder_.Next(&frame);
    if (!more.ok()) return more.status();
    if (more.value()) {
      if (frame.request_id != request.request_id) continue;  // stale/unmatched
      if (frame.type == FrameType::kErrorResponse) {
        return Status(frame.status, std::move(frame.payload));
      }
      if (frame.type != expected) {
        return Status::InvalidArgument("unexpected response frame type");
      }
      return frame;
    }
    auto received = RecvSome(fd_.get(), chunk, sizeof(chunk),
                             /*timeout_ms=*/-1);
    if (!received.ok()) return received.status();
    if (received.value().event == IoEvent::kEof) {
      return Status::IoError("server closed the connection mid-request");
    }
    decoder_.Feed(std::string_view(chunk, received.value().bytes));
  }
}

util::Result<std::vector<core::ColumnOutcome>> Client::AnnotateTypesRobust(
    const table::Table& table, bool sanitize, double abstain_below) {
  Frame request;
  request.type = FrameType::kAnnotateRobustRequest;
  EncodeRobustRequestPayload(table, sanitize, abstain_below,
                             &request.payload);
  auto response =
      RoundTrip(std::move(request), FrameType::kAnnotateRobustResponse);
  if (!response.ok()) return response.status();
  return DecodeOutcomesPayload(response.value().payload);
}

util::Result<std::string> Client::Stats() {
  Frame request;
  request.type = FrameType::kStatsRequest;
  auto response = RoundTrip(std::move(request), FrameType::kStatsResponse);
  if (!response.ok()) return response.status();
  return std::move(response.value().payload);
}

util::Status Client::Ping() {
  Frame request;
  request.type = FrameType::kPingRequest;
  request.payload = "doduo";
  auto response = RoundTrip(std::move(request), FrameType::kPingResponse);
  if (!response.ok()) return response.status();
  if (response.value().payload != "doduo") {
    return Status::IoError("ping payload not echoed");
  }
  return Status::Ok();
}

}  // namespace doduo::serve
