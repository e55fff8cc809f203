// Wire-format fuzzing for the serve protocol (DESIGN §12): truncated
// frames, mutated length prefixes, oversized payload claims, reserved-byte
// abuse, and arbitrary garbage. The decoder must return a clean error (or
// report an incomplete frame) for every input — never crash, and never
// size a buffer from an unvalidated claim. Mirrors the checkpoint-loader
// fuzz discipline of tests/nn/serialize_fuzz_test.cc.

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "doduo/serve/protocol.h"
#include "doduo/util/rng.h"
#include "gtest/gtest.h"
#include "serve/serve_test_util.h"

namespace doduo::serve {
namespace {

std::string EncodedFrame(FrameType type, uint64_t id,
                         const std::string& payload) {
  Frame frame;
  frame.type = type;
  frame.request_id = id;
  frame.payload = payload;
  std::string wire;
  EXPECT_TRUE(EncodeFrame(frame, &wire).ok());
  return wire;
}

std::string EncodedAnnotateRequest() {
  Frame frame;
  frame.type = FrameType::kAnnotateRobustRequest;
  frame.request_id = 7;
  EncodeRobustRequestPayload(testing::MakeTable(1), true, 0.5, &frame.payload);
  std::string wire;
  EXPECT_TRUE(EncodeFrame(frame, &wire).ok());
  return wire;
}

/// Feeds `wire` and drains every complete frame; returns the final status
/// (OK even if frames remain incomplete). Must never crash.
util::Status DrainAll(FrameDecoder* decoder, const std::string& wire,
                      int* frames_out = nullptr) {
  decoder->Feed(wire);
  for (;;) {
    Frame frame;
    auto more = decoder->Next(&frame);
    if (!more.ok()) return more.status();
    if (!more.value()) return util::Status::Ok();
    if (frames_out != nullptr) ++*frames_out;
  }
}

TEST(ProtocolTest, RoundTripsAllFrameFields) {
  const std::string wire =
      EncodedFrame(FrameType::kPingRequest, 0xDEADBEEFCAFE1234ull, "hello");
  FrameDecoder decoder;
  decoder.Feed(wire);
  Frame frame;
  auto more = decoder.Next(&frame);
  ASSERT_TRUE(more.ok()) << more.status().ToString();
  ASSERT_TRUE(more.value());
  EXPECT_EQ(frame.type, FrameType::kPingRequest);
  EXPECT_EQ(frame.request_id, 0xDEADBEEFCAFE1234ull);
  EXPECT_EQ(frame.payload, "hello");
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(ProtocolTest, EveryFrameTypeRoundTripsThroughTheDecoder) {
  // Every id the protocol defines, request and response side alike — the
  // frame-symmetry lint pass (doduo_lint --all) holds this list and the
  // FrameType enum to each other.
  const FrameType kAllFrameTypes[] = {
      FrameType::kStatsRequest,          FrameType::kStatsResponse,
      FrameType::kPingRequest,           FrameType::kPingResponse,
      FrameType::kErrorResponse,         FrameType::kAnnotateRobustRequest,
      FrameType::kAnnotateRobustResponse};
  uint64_t id = 100;
  for (const FrameType type : kAllFrameTypes) {
    ASSERT_TRUE(IsKnownFrameType(static_cast<uint8_t>(type)))
        << static_cast<int>(type);
    const std::string wire = EncodedFrame(type, ++id, "payload-bytes");
    FrameDecoder decoder;
    decoder.Feed(wire);
    Frame frame;
    auto more = decoder.Next(&frame);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    ASSERT_TRUE(more.value());
    EXPECT_EQ(frame.type, type);
    EXPECT_EQ(frame.request_id, id);
    EXPECT_EQ(frame.payload, "payload-bytes");
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
  }
}

TEST(ProtocolTest, TablePayloadRoundTrips) {
  const table::Table table = testing::MakeTable(2);
  std::string payload;
  EncodeTablePayload(table, &payload);
  auto decoded = DecodeTablePayload(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().id(), table.id());
  ASSERT_EQ(decoded.value().num_columns(), table.num_columns());
  for (int c = 0; c < table.num_columns(); ++c) {
    EXPECT_EQ(decoded.value().column(c).name, table.column(c).name);
    EXPECT_EQ(decoded.value().column(c).values, table.column(c).values);
  }
}

/// One of each outcome shape: annotated, abstained, skipped.
std::vector<core::ColumnOutcome> MakeOutcomes() {
  std::vector<core::ColumnOutcome> outcomes(3);
  outcomes[0].labels = {"type1", "type3"};
  outcomes[0].confidence = 0.875;
  outcomes[1].confidence = 0.25;
  outcomes[1].abstained = true;
  outcomes[2].skipped_reason = "mostly_null";
  return outcomes;
}

TEST(ProtocolTest, RobustRequestPayloadRoundTrips) {
  const table::Table table = testing::MakeTable(2);
  for (const bool sanitize : {true, false}) {
    std::string payload;
    EncodeRobustRequestPayload(table, sanitize, 0.75, &payload);
    auto decoded = DecodeRobustRequestPayload(payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().sanitize, sanitize);
    EXPECT_EQ(decoded.value().abstain_below, 0.75);
    EXPECT_EQ(decoded.value().table.id(), table.id());
    ASSERT_EQ(decoded.value().table.num_columns(), table.num_columns());
    for (int c = 0; c < table.num_columns(); ++c) {
      EXPECT_EQ(decoded.value().table.column(c).values,
                table.column(c).values);
    }
  }
}

TEST(ProtocolTest, OutcomesPayloadRoundTrips) {
  const std::vector<core::ColumnOutcome> outcomes = MakeOutcomes();
  std::string payload;
  EncodeOutcomesPayload(outcomes, &payload);
  auto decoded = DecodeOutcomesPayload(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().size(), outcomes.size());
  for (size_t c = 0; c < outcomes.size(); ++c) {
    EXPECT_EQ(decoded.value()[c].labels, outcomes[c].labels);
    EXPECT_EQ(decoded.value()[c].confidence, outcomes[c].confidence);
    EXPECT_EQ(decoded.value()[c].skipped_reason, outcomes[c].skipped_reason);
    EXPECT_EQ(decoded.value()[c].abstained, outcomes[c].abstained);
  }
}

TEST(ProtocolTest, RobustRequestRejectsBadFlagsAndThresholds) {
  std::string payload;
  EncodeRobustRequestPayload(testing::MakeTable(0), true, 0.5, &payload);
  // Unknown flag bit (bit 1).
  std::string bad_flags = payload;
  bad_flags[0] = static_cast<char>(
      static_cast<uint8_t>(bad_flags[0]) | 0x02);
  EXPECT_FALSE(DecodeRobustRequestPayload(bad_flags).ok());
  // Negative and non-finite thresholds (the f64 sits at bytes [4, 12)).
  for (const double bad : {-0.5, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    std::string mutated = payload;
    uint64_t bits = 0;
    std::memcpy(&bits, &bad, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      mutated[4 + b] = static_cast<char>((bits >> (8 * b)) & 0xFF);
    }
    EXPECT_FALSE(DecodeRobustRequestPayload(mutated).ok()) << bad;
  }
}

TEST(ProtocolTest, OutcomesRejectOutOfRangeConfidence) {
  std::vector<core::ColumnOutcome> outcomes(1);
  outcomes[0].labels = {"type0"};
  outcomes[0].confidence = 0.5;
  std::string payload;
  EncodeOutcomesPayload(outcomes, &payload);
  // The confidence f64 sits after outcome count, label count, and the one
  // length-prefixed 5-byte label: offset 4 + 4 + (4 + 5) = 17.
  const size_t offset = 17;
  for (const double bad : {-0.25, 1.5,
                           std::numeric_limits<double>::quiet_NaN()}) {
    std::string mutated = payload;
    uint64_t bits = 0;
    std::memcpy(&bits, &bad, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      mutated[offset + b] = static_cast<char>((bits >> (8 * b)) & 0xFF);
    }
    EXPECT_FALSE(DecodeOutcomesPayload(mutated).ok()) << bad;
  }
}

// -- Truncation ---------------------------------------------------------------

TEST(ProtocolFuzzTest, EveryFramePrefixIsIncompleteNotAnError) {
  const std::string wire = EncodedAnnotateRequest();
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    FrameDecoder decoder;
    decoder.Feed(wire.substr(0, cut));
    Frame frame;
    auto more = decoder.Next(&frame);
    ASSERT_TRUE(more.ok()) << "cut at " << cut << ": "
                           << more.status().ToString();
    EXPECT_FALSE(more.value()) << "cut at " << cut;
    // A mid-frame disconnect leaves a resumable decoder: feeding the rest
    // completes the frame.
    decoder.Feed(wire.substr(cut));
    auto rest = decoder.Next(&frame);
    ASSERT_TRUE(rest.ok()) << "resume at " << cut;
    EXPECT_TRUE(rest.value()) << "resume at " << cut;
  }
}

TEST(ProtocolFuzzTest, EveryTablePayloadPrefixFailsCleanly) {
  std::string payload;
  EncodeTablePayload(testing::MakeTable(3), &payload);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    auto decoded = DecodeTablePayload(payload.substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut;
  }
}

TEST(ProtocolFuzzTest, EveryRobustPayloadPrefixFailsCleanly) {
  std::string request;
  EncodeRobustRequestPayload(testing::MakeTable(3), true, 0.5, &request);
  for (size_t cut = 0; cut < request.size(); ++cut) {
    EXPECT_FALSE(DecodeRobustRequestPayload(request.substr(0, cut)).ok())
        << "cut at " << cut;
  }
  std::string outcomes;
  EncodeOutcomesPayload(MakeOutcomes(), &outcomes);
  for (size_t cut = 0; cut < outcomes.size(); ++cut) {
    EXPECT_FALSE(DecodeOutcomesPayload(outcomes.substr(0, cut)).ok())
        << "cut at " << cut;
  }
}

// -- Mutated length prefixes and headers --------------------------------------

TEST(ProtocolFuzzTest, OversizedPayloadClaimIsRejectedBeforeBuffering) {
  std::string wire = EncodedFrame(FrameType::kPingRequest, 1, "x");
  // Rewrite the length field (offset 16, LE u32) to claim > 16 MiB.
  const uint32_t huge = kMaxPayloadBytes + 1;
  for (int b = 0; b < 4; ++b) {
    wire[16 + b] = static_cast<char>((huge >> (8 * b)) & 0xFF);
  }
  FrameDecoder decoder;
  decoder.Feed(wire.substr(0, kFrameHeaderBytes));
  Frame frame;
  auto more = decoder.Next(&frame);
  ASSERT_FALSE(more.ok());
  // The claim was bounded by the limit, not trusted: the decoder holds
  // only the header bytes it was fed, no 16 MiB buffer was sized.
  EXPECT_LE(decoder.buffered_bytes(), kFrameHeaderBytes);
  // Poisoning is sticky — the connection is dead to the decoder.
  decoder.Feed(EncodedFrame(FrameType::kPingRequest, 2, "ok"));
  EXPECT_FALSE(decoder.Next(&frame).ok());
}

size_t DecodedBytes(const table::Table& table) {
  size_t bytes = table.id().size();
  for (const table::Column& column : table.columns()) {
    bytes += column.name.size();
    for (const std::string& value : column.values) bytes += value.size();
  }
  return bytes;
}

size_t DecodedBytes(const std::vector<core::ColumnOutcome>& outcomes) {
  size_t bytes = 0;
  for (const core::ColumnOutcome& outcome : outcomes) {
    bytes += outcome.skipped_reason.size();
    for (const std::string& label : outcome.labels) bytes += label.size();
  }
  return bytes;
}

/// Writes a ~2^31 u32 claim at `pos`.
std::string WithHugeU32(std::string payload, size_t pos) {
  payload[pos] = '\xFF';
  payload[pos + 1] = '\xFF';
  payload[pos + 2] = '\xFF';
  payload[pos + 3] = '\x7F';
  return payload;
}

TEST(ProtocolFuzzTest, MutatedPayloadCountsNeverCauseRunawayAllocation) {
  std::string table;
  EncodeTablePayload(testing::MakeTable(0), &table);
  std::string request;
  EncodeRobustRequestPayload(testing::MakeTable(0), true, 0.5, &request);
  std::string outcomes;
  EncodeOutcomesPayload(MakeOutcomes(), &outcomes);
  // Overwrite every 4-byte window with a ~2^31 claim. Windows that land on
  // a length/count field must fail (the claim exceeds the bytes present);
  // windows inside string bytes may still decode — but then the decoded
  // strings came from the payload, so their total size is bounded by it.
  for (size_t pos = 0; pos + 4 <= table.size(); ++pos) {
    const std::string mutated = WithHugeU32(table, pos);
    auto decoded = DecodeTablePayload(mutated);
    if (decoded.ok()) {
      EXPECT_LE(DecodedBytes(decoded.value()), mutated.size())
          << "u32 at " << pos;
    }
  }
  for (size_t pos = 0; pos + 4 <= request.size(); ++pos) {
    const std::string mutated = WithHugeU32(request, pos);
    auto decoded = DecodeRobustRequestPayload(mutated);
    if (decoded.ok()) {
      EXPECT_LE(DecodedBytes(decoded.value().table), mutated.size())
          << "u32 at " << pos;
    }
  }
  for (size_t pos = 0; pos + 4 <= outcomes.size(); ++pos) {
    const std::string mutated = WithHugeU32(outcomes, pos);
    auto decoded = DecodeOutcomesPayload(mutated);
    if (decoded.ok()) {
      EXPECT_LE(DecodedBytes(decoded.value()), mutated.size())
          << "u32 at " << pos;
    }
  }
  // The unambiguous cases: a huge claim in the leading count field fails.
  EXPECT_FALSE(DecodeTablePayload(WithHugeU32(table, 0)).ok());
  EXPECT_FALSE(DecodeOutcomesPayload(WithHugeU32(outcomes, 0)).ok());
  // The robust request's table starts after flags u32 + threshold f64.
  EXPECT_FALSE(DecodeRobustRequestPayload(WithHugeU32(request, 12)).ok());
}

TEST(ProtocolFuzzTest, EverySingleByteHeaderMutationIsHandled) {
  const std::string wire = EncodedFrame(FrameType::kStatsRequest, 42, "");
  for (size_t pos = 0; pos < kFrameHeaderBytes; ++pos) {
    for (int delta : {1, 0x53, 0xFF}) {
      std::string mutated = wire;
      mutated[pos] = static_cast<char>(
          (static_cast<uint8_t>(mutated[pos]) + delta) & 0xFF);
      FrameDecoder decoder;
      int frames = 0;
      // Either a clean protocol error or a (possibly different) decodable
      // frame; ids/status of a corrupted-but-valid header may differ, but
      // nothing crashes and nothing hangs.
      const util::Status status = DrainAll(&decoder, mutated, &frames);
      if (status.ok() && frames == 0) {
        // Interpreted as incomplete: only possible when the mutation grew
        // the length field within bounds.
        EXPECT_TRUE(pos >= 16 && pos < 20) << "pos " << pos;
      }
    }
  }
}

// -- Random garbage -----------------------------------------------------------

class ProtocolGarbageFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProtocolGarbageFuzzTest, RandomBytesNeverCrashTheDecoder) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    FrameDecoder decoder;
    // Random chunk sizes model arbitrary TCP segmentation.
    std::string garbage;
    const int len = 1 + static_cast<int>(rng.NextUint64(64));
    for (int i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.NextUint64(256)));
    }
    util::Status first = DrainAll(&decoder, garbage);
    // Whatever happened, the decoder stays consistent: a poisoned decoder
    // repeats its error, a healthy one keeps accepting bytes.
    Frame frame;
    auto again = decoder.Next(&frame);
    EXPECT_EQ(again.ok(), first.ok());
  }
}

TEST_P(ProtocolGarbageFuzzTest, RandomPayloadMutationsNeverCrashCodecs) {
  util::Rng rng(GetParam());
  std::vector<std::string> payloads(3);
  EncodeTablePayload(testing::MakeTable(1), &payloads[0]);
  EncodeRobustRequestPayload(testing::MakeTable(1), true, 0.5, &payloads[1]);
  EncodeOutcomesPayload(MakeOutcomes(), &payloads[2]);
  for (int round = 0; round < 500; ++round) {
    std::string mutated = payloads[static_cast<size_t>(round) % 3];
    const int flips = 1 + static_cast<int>(rng.NextUint64(4));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = static_cast<size_t>(rng.NextUint64(
          static_cast<uint64_t>(mutated.size())));
      mutated[pos] = static_cast<char>(rng.NextUint64(256));
    }
    // Success or precise failure both fine; crashes and runaway
    // allocations are the only wrong answers.
    (void)DecodeTablePayload(mutated).ok();
    (void)DecodeRobustRequestPayload(mutated).ok();
    (void)DecodeOutcomesPayload(mutated).ok();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolGarbageFuzzTest,
                         ::testing::Values(1u, 42u, 777u, 31337u));

}  // namespace
}  // namespace doduo::serve
