#ifndef DODUO_SERVE_PROTOCOL_H_
#define DODUO_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "doduo/core/annotator.h"
#include "doduo/table/table.h"
#include "doduo/util/status.h"

namespace doduo::serve {

// The doduo_serve wire format (DESIGN §12): length-prefixed binary frames
// over TCP, all integers little-endian.
//
//   offset  size  field
//   0       2     magic    0xD0 0xD0
//   2       1     version  kProtocolVersion
//   3       1     type     FrameType
//   4       1     status   util::StatusCode (0 on requests and OK responses)
//   5       3     reserved must be zero
//   8       8     id       request id, chosen by the client, echoed verbatim
//                          in the matching response (responses to pipelined
//                          requests may arrive out of submission order)
//   16      4     length   payload byte count, <= kMaxPayloadBytes
//   20      len   payload
//
// Every multi-byte payload field is a u32 count or byte length; decoders
// bound every claimed length against the bytes actually present BEFORE
// allocating (the checkpoint-loader discipline of DESIGN §10, extended to
// the wire). A frame that cannot possibly be valid — bad magic, unknown
// version or type, nonzero reserved bytes, or a payload claim above
// kMaxPayloadBytes — is a connection-fatal protocol error: the server
// answers with a best-effort kErrorResponse and closes.
//
// There is one annotate request: kAnnotateRobustRequest carries the table
// plus its options, and kAnnotateRobustResponse answers with one
// ColumnOutcome per column. Ids 1 and 2 stay unassigned so that a peer
// still sending the retired types-only annotate pair gets the unknown
// frame type error instead of having its frames misread.

inline constexpr uint8_t kFrameMagic0 = 0xD0;
inline constexpr uint8_t kFrameMagic1 = 0xD0;
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 20;
/// Hard ceiling on one frame's payload; a length prefix above this is
/// rejected before any buffer is sized by it.
inline constexpr uint32_t kMaxPayloadBytes = 16u << 20;  // 16 MiB

enum class FrameType : uint8_t {
  kStatsRequest = 3,   // payload: empty
  kStatsResponse = 4,  // payload: util::MetricsToJson() text
  kPingRequest = 5,    // payload: echoed back verbatim
  kPingResponse = 6,
  kErrorResponse = 7,  // status = the error code; payload: message text
  kAnnotateRobustRequest = 8,   // payload: robust options + encoded table
  kAnnotateRobustResponse = 9,  // payload: encoded per-column outcomes
};

/// True for the FrameType values a well-formed peer may send.
bool IsKnownFrameType(uint8_t type);

struct Frame {
  FrameType type = FrameType::kPingRequest;
  util::StatusCode status = util::StatusCode::kOk;
  uint64_t request_id = 0;
  std::string payload;
};

/// Appends the encoded frame to `out`. Fails (without writing) when the
/// payload exceeds kMaxPayloadBytes.
[[nodiscard]] util::Status EncodeFrame(const Frame& frame, std::string* out);

/// Incremental frame decoder: feed raw bytes as they arrive, then drain
/// complete frames. A returned error is a protocol violation and poisons
/// the decoder — the connection should be closed (every later Next() call
/// repeats the error).
class FrameDecoder {
 public:
  /// Appends received bytes to the internal buffer.
  void Feed(std::string_view bytes);

  /// kOk + true: `*out` holds the next frame. kOk + false: the buffered
  /// bytes end mid-frame (a disconnect here is a clean truncation, not an
  /// error). Non-OK: protocol violation, close the connection.
  [[nodiscard]] util::Result<bool> Next(Frame* out);

  /// Bytes buffered but not yet consumed by Next().
  size_t buffered_bytes() const { return buffer_.size() - pos_; }

 private:
  std::string buffer_;
  size_t pos_ = 0;
  util::Status poisoned_;  // first protocol error, sticky
};

// -- Payload codecs ---------------------------------------------------------
//
// Table:    id_len u32, id bytes, num_columns u32, then per column:
//           name_len u32, name bytes, num_values u32, then per value:
//           value_len u32, value bytes.
// Robust request:
//           flags u32 (bit 0 = run the sanitizer pass; other bits must be
//           zero), abstain_below f64 (IEEE-754 bits as u64 LE; must be
//           finite and >= 0), then a Table payload.
// Outcomes: num_columns u32, then per column: num_labels u32, per label
//           label_len u32 + label bytes, confidence f64 (finite, in
//           [0, 1]), reason_len u32 + reason bytes, flags u32 (bit 0 =
//           abstained; other bits must be zero).
//
// Decoders validate every count and length against the remaining payload
// before allocating, so a mutated count cannot trigger a runaway
// allocation; trailing bytes after a complete object are an error.

void EncodeTablePayload(const table::Table& table, std::string* out);
[[nodiscard]] util::Result<table::Table> DecodeTablePayload(
    std::string_view payload);

/// A decoded kAnnotateRobustRequest: the table plus the two dirty-input
/// knobs that travel on the wire. Sanitizer thresholds stay server-side.
struct RobustRequest {
  table::Table table;
  bool sanitize = true;
  double abstain_below = 0.0;
};

void EncodeRobustRequestPayload(const table::Table& table, bool sanitize,
                                double abstain_below, std::string* out);
[[nodiscard]] util::Result<RobustRequest> DecodeRobustRequestPayload(
    std::string_view payload);

void EncodeOutcomesPayload(const std::vector<core::ColumnOutcome>& outcomes,
                           std::string* out);
[[nodiscard]] util::Result<std::vector<core::ColumnOutcome>>
DecodeOutcomesPayload(std::string_view payload);

}  // namespace doduo::serve

#endif  // DODUO_SERVE_PROTOCOL_H_
