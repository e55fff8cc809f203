#include "doduo/serve/protocol.h"

#include <cmath>
#include <cstring>
#include <utility>

namespace doduo::serve {

namespace {

using util::Status;

void AppendU32(uint32_t v, std::string* out) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

void AppendU64(uint64_t v, std::string* out) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

uint32_t ReadU32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
}

uint64_t ReadU64(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

void AppendLengthPrefixed(std::string_view bytes, std::string* out) {
  AppendU32(static_cast<uint32_t>(bytes.size()), out);
  out->append(bytes);
}

/// Doubles travel as their IEEE-754 bit pattern in a LE u64; decoders
/// re-validate range, so a hostile bit pattern is just a rejected value.
void AppendF64(double v, std::string* out) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(bits, out);
}

/// Bounds-checked cursor over a payload. Every read validates against the
/// remaining bytes before touching (or sizing anything by) them.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }

  [[nodiscard]] Status ReadU32Field(const char* what, uint32_t* out) {
    if (remaining() < 4) {
      return Status::InvalidArgument(
          std::string("payload truncated reading ") + what);
    }
    *out = ReadU32(data_.data() + pos_);
    pos_ += 4;
    return Status::Ok();
  }

  /// Reads an IEEE-754 double (u64 LE bit pattern); any non-finite value —
  /// NaN, ±inf, or hostile bit soup — is rejected here, so downstream code
  /// only ever sees real numbers.
  [[nodiscard]] Status ReadF64Field(const char* what, double* out) {
    if (remaining() < 8) {
      return Status::InvalidArgument(
          std::string("payload truncated reading ") + what);
    }
    const uint64_t bits = ReadU64(data_.data() + pos_);
    pos_ += 8;
    std::memcpy(out, &bits, sizeof(*out));
    if (!std::isfinite(*out)) {
      return Status::InvalidArgument(std::string(what) + " is not finite");
    }
    return Status::Ok();
  }

  /// Reads a u32 length then that many bytes. The claim is bounded by the
  /// bytes actually present before the string is sized.
  [[nodiscard]] Status ReadString(const char* what, std::string* out) {
    uint32_t len = 0;
    if (Status s = ReadU32Field(what, &len); !s.ok()) return s;
    if (len > remaining()) {
      return Status::InvalidArgument(
          std::string(what) + " claims " + std::to_string(len) +
          " bytes but only " + std::to_string(remaining()) + " remain");
    }
    out->assign(data_.data() + pos_, len);
    pos_ += len;
    return Status::Ok();
  }

  /// Reads a u32 element count for elements of at least `min_bytes_each`
  /// encoded bytes; an impossible count fails before any container is
  /// sized by it.
  [[nodiscard]] Status ReadCount(const char* what, size_t min_bytes_each,
                                 uint32_t* out) {
    if (Status s = ReadU32Field(what, out); !s.ok()) return s;
    if (static_cast<uint64_t>(*out) * min_bytes_each > remaining()) {
      return Status::InvalidArgument(
          std::string(what) + " claims " + std::to_string(*out) +
          " entries but only " + std::to_string(remaining()) +
          " payload bytes remain");
    }
    return Status::Ok();
  }

  [[nodiscard]] Status ExpectEnd(const char* what) {
    if (remaining() != 0) {
      return Status::InvalidArgument(std::to_string(remaining()) +
                                     " trailing bytes after " + what);
    }
    return Status::Ok();
  }

  /// The unconsumed tail, for handing off to a nested payload decoder.
  std::string_view rest() const { return data_.substr(pos_); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

constexpr uint8_t kMaxStatusCode =
    static_cast<uint8_t>(util::StatusCode::kResourceExhausted);

}  // namespace

bool IsKnownFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kStatsRequest) &&
         type <= static_cast<uint8_t>(FrameType::kAnnotateRobustResponse);
}

util::Status EncodeFrame(const Frame& frame, std::string* out) {
  if (frame.payload.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(frame.payload.size()) +
        " bytes exceeds kMaxPayloadBytes");
  }
  out->reserve(out->size() + kFrameHeaderBytes + frame.payload.size());
  out->push_back(static_cast<char>(kFrameMagic0));
  out->push_back(static_cast<char>(kFrameMagic1));
  out->push_back(static_cast<char>(kProtocolVersion));
  out->push_back(static_cast<char>(frame.type));
  out->push_back(static_cast<char>(frame.status));
  out->append(3, '\0');  // reserved
  AppendU64(frame.request_id, out);
  AppendU32(static_cast<uint32_t>(frame.payload.size()), out);
  out->append(frame.payload);
  return Status::Ok();
}

void FrameDecoder::Feed(std::string_view bytes) {
  // Compact lazily so a long-lived connection doesn't grow without bound.
  if (pos_ > 0 && pos_ >= buffer_.size() / 2) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  buffer_.append(bytes);
}

util::Result<bool> FrameDecoder::Next(Frame* out) {
  if (!poisoned_.ok()) return poisoned_;
  const size_t available = buffer_.size() - pos_;
  if (available < kFrameHeaderBytes) {
    // Validate what we can see of the header so garbage fails fast instead
    // of waiting forever for a "payload" that will never come.
    const char* h = buffer_.data() + pos_;
    if (available >= 1 && static_cast<uint8_t>(h[0]) != kFrameMagic0) {
      poisoned_ = Status::InvalidArgument("bad frame magic");
      return poisoned_;
    }
    if (available >= 2 && static_cast<uint8_t>(h[1]) != kFrameMagic1) {
      poisoned_ = Status::InvalidArgument("bad frame magic");
      return poisoned_;
    }
    return false;
  }
  const char* h = buffer_.data() + pos_;
  if (static_cast<uint8_t>(h[0]) != kFrameMagic0 ||
      static_cast<uint8_t>(h[1]) != kFrameMagic1) {
    poisoned_ = Status::InvalidArgument("bad frame magic");
    return poisoned_;
  }
  if (static_cast<uint8_t>(h[2]) != kProtocolVersion) {
    poisoned_ = Status::InvalidArgument(
        "unsupported protocol version " +
        std::to_string(static_cast<int>(static_cast<uint8_t>(h[2]))));
    return poisoned_;
  }
  if (!IsKnownFrameType(static_cast<uint8_t>(h[3]))) {
    poisoned_ = Status::InvalidArgument(
        "unknown frame type " +
        std::to_string(static_cast<int>(static_cast<uint8_t>(h[3]))));
    return poisoned_;
  }
  if (static_cast<uint8_t>(h[4]) > kMaxStatusCode) {
    poisoned_ = Status::InvalidArgument("invalid status byte");
    return poisoned_;
  }
  if (h[5] != 0 || h[6] != 0 || h[7] != 0) {
    poisoned_ = Status::InvalidArgument("nonzero reserved header bytes");
    return poisoned_;
  }
  const uint32_t length = ReadU32(h + 16);
  if (length > kMaxPayloadBytes) {
    // Rejected before any buffer is sized by the claim.
    poisoned_ = Status::InvalidArgument(
        "frame claims " + std::to_string(length) +
        " payload bytes, above the " + std::to_string(kMaxPayloadBytes) +
        "-byte limit");
    return poisoned_;
  }
  if (available < kFrameHeaderBytes + length) return false;
  out->type = static_cast<FrameType>(static_cast<uint8_t>(h[3]));
  out->status = static_cast<util::StatusCode>(static_cast<uint8_t>(h[4]));
  out->request_id = ReadU64(h + 8);
  out->payload.assign(h + kFrameHeaderBytes, length);
  pos_ += kFrameHeaderBytes + length;
  return true;
}

void EncodeTablePayload(const table::Table& table, std::string* out) {
  AppendLengthPrefixed(table.id(), out);
  AppendU32(static_cast<uint32_t>(table.num_columns()), out);
  for (const table::Column& column : table.columns()) {
    AppendLengthPrefixed(column.name, out);
    AppendU32(static_cast<uint32_t>(column.values.size()), out);
    for (const std::string& value : column.values) {
      AppendLengthPrefixed(value, out);
    }
  }
}

util::Result<table::Table> DecodeTablePayload(std::string_view payload) {
  PayloadReader reader(payload);
  std::string id;
  if (Status s = reader.ReadString("table id", &id); !s.ok()) return s;
  table::Table table(std::move(id));
  uint32_t num_columns = 0;
  // Each column encodes at least name_len + num_values = 8 bytes.
  if (Status s = reader.ReadCount("column count", 8, &num_columns); !s.ok()) {
    return s;
  }
  for (uint32_t c = 0; c < num_columns; ++c) {
    table::Column column;
    if (Status s = reader.ReadString("column name", &column.name); !s.ok()) {
      return s;
    }
    uint32_t num_values = 0;
    if (Status s = reader.ReadCount("value count", 4, &num_values); !s.ok()) {
      return s;
    }
    column.values.reserve(num_values);
    for (uint32_t v = 0; v < num_values; ++v) {
      std::string value;
      if (Status s = reader.ReadString("cell value", &value); !s.ok()) {
        return s;
      }
      column.values.push_back(std::move(value));
    }
    table.AddColumn(std::move(column));
  }
  if (Status s = reader.ExpectEnd("table payload"); !s.ok()) return s;
  return table;
}

namespace {

// Wire flag bits. Unknown bits are rejected on decode so they stay
// available for future meanings instead of being silently shipped.
constexpr uint32_t kRobustFlagSanitize = 1u << 0;
constexpr uint32_t kOutcomeFlagAbstained = 1u << 0;

}  // namespace

void EncodeRobustRequestPayload(const table::Table& table, bool sanitize,
                                double abstain_below, std::string* out) {
  AppendU32(sanitize ? kRobustFlagSanitize : 0u, out);
  AppendF64(abstain_below, out);
  EncodeTablePayload(table, out);
}

util::Result<RobustRequest> DecodeRobustRequestPayload(
    std::string_view payload) {
  PayloadReader reader(payload);
  uint32_t flags = 0;
  if (Status s = reader.ReadU32Field("robust flags", &flags); !s.ok()) {
    return s;
  }
  if ((flags & ~kRobustFlagSanitize) != 0) {
    return Status::InvalidArgument("unknown robust request flag bits");
  }
  RobustRequest request;
  request.sanitize = (flags & kRobustFlagSanitize) != 0;
  if (Status s = reader.ReadF64Field("abstain threshold",
                                     &request.abstain_below);
      !s.ok()) {
    return s;
  }
  if (request.abstain_below < 0.0) {
    return Status::InvalidArgument("abstain threshold is negative");
  }
  // The table decoder owns the tail, including the trailing-bytes check.
  auto table = DecodeTablePayload(reader.rest());
  if (!table.ok()) return table.status();
  request.table = std::move(table).value();
  return request;
}

void EncodeOutcomesPayload(const std::vector<core::ColumnOutcome>& outcomes,
                           std::string* out) {
  AppendU32(static_cast<uint32_t>(outcomes.size()), out);
  for (const core::ColumnOutcome& outcome : outcomes) {
    AppendU32(static_cast<uint32_t>(outcome.labels.size()), out);
    for (const std::string& label : outcome.labels) {
      AppendLengthPrefixed(label, out);
    }
    AppendF64(outcome.confidence, out);
    AppendLengthPrefixed(outcome.skipped_reason, out);
    AppendU32(outcome.abstained ? kOutcomeFlagAbstained : 0u, out);
  }
}

util::Result<std::vector<core::ColumnOutcome>> DecodeOutcomesPayload(
    std::string_view payload) {
  PayloadReader reader(payload);
  uint32_t num_columns = 0;
  // Each outcome encodes at least num_labels + confidence + reason_len +
  // flags = 20 bytes.
  if (Status s = reader.ReadCount("outcome count", 20, &num_columns);
      !s.ok()) {
    return s;
  }
  std::vector<core::ColumnOutcome> outcomes;
  outcomes.reserve(num_columns);
  for (uint32_t c = 0; c < num_columns; ++c) {
    core::ColumnOutcome outcome;
    uint32_t num_labels = 0;
    if (Status s = reader.ReadCount("label count", 4, &num_labels); !s.ok()) {
      return s;
    }
    outcome.labels.reserve(num_labels);
    for (uint32_t l = 0; l < num_labels; ++l) {
      std::string label;
      if (Status s = reader.ReadString("outcome label", &label); !s.ok()) {
        return s;
      }
      outcome.labels.push_back(std::move(label));
    }
    if (Status s = reader.ReadF64Field("confidence", &outcome.confidence);
        !s.ok()) {
      return s;
    }
    if (outcome.confidence < 0.0 || outcome.confidence > 1.0) {
      return Status::InvalidArgument("confidence outside [0, 1]");
    }
    if (Status s = reader.ReadString("skip reason", &outcome.skipped_reason);
        !s.ok()) {
      return s;
    }
    uint32_t flags = 0;
    if (Status s = reader.ReadU32Field("outcome flags", &flags); !s.ok()) {
      return s;
    }
    if ((flags & ~kOutcomeFlagAbstained) != 0) {
      return Status::InvalidArgument("unknown outcome flag bits");
    }
    outcome.abstained = (flags & kOutcomeFlagAbstained) != 0;
    outcomes.push_back(std::move(outcome));
  }
  if (Status s = reader.ExpectEnd("outcomes payload"); !s.ok()) return s;
  return outcomes;
}

}  // namespace doduo::serve
