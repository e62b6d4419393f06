// Serve-plane wire protocol: encode/decode round-trips for all eight
// frame types, FrameReader reassembly across arbitrary byte splits, and
// the hostile-input surface — truncated, oversized, trailing-byte, and
// random-garbage payloads must be rejected without UB (this test runs
// under TSan in CI; the decoders are also bounds-checked by design).
// Also the SelfPipe that wakes the serve IO loop and the HTTP accept
// loop: neither of its ends may ever block its caller.

#include <fcntl.h>
#include <poll.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "net/protocol.h"
#include "net/socket.h"
#include "util/rng.h"
#include "util/serialization.h"

namespace latest::net {
namespace {

stream::GeoTextObject MakeObject() {
  stream::GeoTextObject obj;
  obj.oid = 424242;
  obj.loc = {12.5, -7.25};
  obj.keywords = {3, 17, 99};
  obj.timestamp = 123456789;
  return obj;
}

stream::Query MakeRangeQuery() {
  stream::Query q;
  q.range = geo::Rect{1.0, 2.0, 3.0, 4.0};
  q.keywords = {5, 8};
  q.timestamp = 987654321;
  return q;
}

/// Feeds `bytes` to a FrameReader in one go and expects exactly one
/// frame of `want_type`, returning its payload as an owned string.
std::string ReadSingleFrame(const std::string& bytes, FrameType want_type) {
  FrameReader reader;
  reader.Append(bytes.data(), bytes.size());
  FrameReader::Frame frame;
  EXPECT_EQ(reader.Next(&frame), FrameReader::Outcome::kFrame);
  EXPECT_EQ(frame.type, static_cast<uint8_t>(want_type));
  std::string payload(frame.payload);
  EXPECT_EQ(reader.Next(&frame), FrameReader::Outcome::kNeedMore);
  EXPECT_EQ(reader.buffered_bytes(), 0u);
  return payload;
}

TEST(NetProtocolTest, IngestRoundTrip) {
  IngestRequest req;
  req.request_id = 7;
  req.object = MakeObject();
  std::string bytes;
  EncodeIngest(req, &bytes);

  IngestRequest got;
  ASSERT_TRUE(
      DecodeIngest(ReadSingleFrame(bytes, FrameType::kIngest), &got));
  EXPECT_EQ(got.request_id, 7u);
  EXPECT_EQ(got.object.oid, req.object.oid);
  EXPECT_EQ(got.object.loc.x, req.object.loc.x);
  EXPECT_EQ(got.object.loc.y, req.object.loc.y);
  EXPECT_EQ(got.object.keywords, req.object.keywords);
  EXPECT_EQ(got.object.timestamp, req.object.timestamp);
}

TEST(NetProtocolTest, QueryRoundTripWithAndWithoutRange) {
  QueryRequest ranged;
  ranged.request_id = 11;
  ranged.query = MakeRangeQuery();
  std::string bytes;
  EncodeQuery(ranged, &bytes);
  QueryRequest got;
  ASSERT_TRUE(DecodeQuery(ReadSingleFrame(bytes, FrameType::kQuery), &got));
  EXPECT_EQ(got.request_id, 11u);
  ASSERT_TRUE(got.query.range.has_value());
  EXPECT_EQ(got.query.range->min_x, 1.0);
  EXPECT_EQ(got.query.range->max_y, 4.0);
  EXPECT_EQ(got.query.keywords, ranged.query.keywords);
  EXPECT_EQ(got.query.timestamp, ranged.query.timestamp);

  QueryRequest keyword_only;
  keyword_only.request_id = 12;
  keyword_only.query.keywords = {42};
  keyword_only.query.timestamp = 5;
  bytes.clear();
  EncodeQuery(keyword_only, &bytes);
  ASSERT_TRUE(DecodeQuery(ReadSingleFrame(bytes, FrameType::kQuery), &got));
  EXPECT_FALSE(got.query.range.has_value());
  EXPECT_EQ(got.query.keywords, std::vector<stream::KeywordId>{42});
}

TEST(NetProtocolTest, QueryWithNoPredicatesRejected) {
  // A query must carry a range or keywords; an empty one is a protocol
  // violation, not a module crash waiting to happen.
  QueryRequest req;
  req.request_id = 1;
  req.query.timestamp = 10;
  std::string bytes;
  EncodeQuery(req, &bytes);
  QueryRequest got;
  EXPECT_FALSE(
      DecodeQuery(ReadSingleFrame(bytes, FrameType::kQuery), &got));
}

TEST(NetProtocolTest, ResponseRoundTrips) {
  std::string bytes;

  IngestAck ack{31};
  EncodeIngestAck(ack, &bytes);
  IngestAck ack_got;
  ASSERT_TRUE(DecodeIngestAck(
      ReadSingleFrame(bytes, FrameType::kIngestAck), &ack_got));
  EXPECT_EQ(ack_got.request_id, 31u);

  QueryResponse qr;
  qr.request_id = 32;
  qr.estimate = 123.5;
  qr.actual = 120;
  qr.phase = 2;
  qr.active_kind = 3;
  bytes.clear();
  EncodeQueryResponse(qr, &bytes);
  QueryResponse qr_got;
  ASSERT_TRUE(DecodeQueryResponse(
      ReadSingleFrame(bytes, FrameType::kQueryResponse), &qr_got));
  EXPECT_EQ(qr_got.request_id, 32u);
  EXPECT_EQ(qr_got.estimate, 123.5);
  EXPECT_EQ(qr_got.actual, 120u);
  EXPECT_EQ(qr_got.phase, 2u);
  EXPECT_EQ(qr_got.active_kind, 3u);

  StatusResponse sr;
  sr.request_id = 33;
  sr.phase = 1;
  sr.active_kind = 4;
  sr.objects_ingested = 1000;
  sr.queries_answered = 50;
  sr.shed = 3;
  bytes.clear();
  EncodeStatusResponse(sr, &bytes);
  StatusResponse sr_got;
  ASSERT_TRUE(DecodeStatusResponse(
      ReadSingleFrame(bytes, FrameType::kStatusResponse), &sr_got));
  EXPECT_EQ(sr_got.objects_ingested, 1000u);
  EXPECT_EQ(sr_got.queries_answered, 50u);
  EXPECT_EQ(sr_got.shed, 3u);

  RetryLater retry;
  retry.request_id = 34;
  retry.rejected_type = static_cast<uint32_t>(FrameType::kQuery);
  retry.backoff_hint_ms = 105;
  bytes.clear();
  EncodeRetryLater(retry, &bytes);
  RetryLater retry_got;
  ASSERT_TRUE(DecodeRetryLater(
      ReadSingleFrame(bytes, FrameType::kRetryLater), &retry_got));
  EXPECT_EQ(retry_got.rejected_type,
            static_cast<uint32_t>(FrameType::kQuery));
  EXPECT_EQ(retry_got.backoff_hint_ms, 105u);

  ErrorFrame error;
  error.request_id = 35;
  error.message = "bad frame \"quoted\"";
  bytes.clear();
  EncodeError(error, &bytes);
  ErrorFrame error_got;
  ASSERT_TRUE(
      DecodeError(ReadSingleFrame(bytes, FrameType::kError), &error_got));
  EXPECT_EQ(error_got.message, error.message);

  StatusRequest status{36};
  bytes.clear();
  EncodeStatus(status, &bytes);
  StatusRequest status_got;
  ASSERT_TRUE(DecodeStatus(
      ReadSingleFrame(bytes, FrameType::kStatus), &status_got));
  EXPECT_EQ(status_got.request_id, 36u);
}

TEST(NetProtocolTest, FrameReaderReassemblesByteAtATime) {
  // Three frames concatenated, fed one byte at a time: the reader must
  // yield exactly those three frames in order regardless of the splits.
  std::string bytes;
  IngestRequest ingest;
  ingest.request_id = 1;
  ingest.object = MakeObject();
  EncodeIngest(ingest, &bytes);
  QueryRequest query;
  query.request_id = 2;
  query.query = MakeRangeQuery();
  EncodeQuery(query, &bytes);
  EncodeStatus(StatusRequest{3}, &bytes);

  FrameReader reader;
  std::vector<uint8_t> types;
  for (const char c : bytes) {
    reader.Append(&c, 1);
    FrameReader::Frame frame;
    while (reader.Next(&frame) == FrameReader::Outcome::kFrame) {
      types.push_back(frame.type);
    }
  }
  const std::vector<uint8_t> want = {
      static_cast<uint8_t>(FrameType::kIngest),
      static_cast<uint8_t>(FrameType::kQuery),
      static_cast<uint8_t>(FrameType::kStatus)};
  EXPECT_EQ(types, want);
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(NetProtocolTest, TruncatedFrameIsNeedMoreNotError) {
  std::string bytes;
  IngestRequest req;
  req.request_id = 9;
  req.object = MakeObject();
  EncodeIngest(req, &bytes);

  // Every proper prefix is incomplete: kNeedMore, never kFrame/kError.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    FrameReader reader;
    reader.Append(bytes.data(), cut);
    FrameReader::Frame frame;
    EXPECT_EQ(reader.Next(&frame), FrameReader::Outcome::kNeedMore)
        << "prefix length " << cut;
  }
}

TEST(NetProtocolTest, OversizedPayloadPoisonsStream) {
  // Header claiming a payload over the 1 MiB cap: protocol error, and
  // the error is sticky (no resync inside a length-prefixed stream).
  util::BinaryWriter writer;
  writer.WriteU32(kMaxPayloadBytes + 1);
  std::string bytes = writer.TakeBuffer();
  bytes.push_back(static_cast<char>(FrameType::kIngest));

  FrameReader reader;
  reader.Append(bytes.data(), bytes.size());
  FrameReader::Frame frame;
  EXPECT_EQ(reader.Next(&frame), FrameReader::Outcome::kProtocolError);
  // Feeding more (even valid) bytes does not revive the stream.
  std::string good;
  EncodeStatus(StatusRequest{1}, &good);
  reader.Append(good.data(), good.size());
  EXPECT_EQ(reader.Next(&frame), FrameReader::Outcome::kProtocolError);
}

TEST(NetProtocolTest, UnknownFrameTypeIsProtocolError) {
  util::BinaryWriter writer;
  writer.WriteU32(0);
  std::string bytes = writer.TakeBuffer();
  bytes.push_back(static_cast<char>(0));  // Type 0 is not assigned.
  FrameReader reader;
  reader.Append(bytes.data(), bytes.size());
  FrameReader::Frame frame;
  EXPECT_EQ(reader.Next(&frame), FrameReader::Outcome::kProtocolError);
}

TEST(NetProtocolTest, TrailingPayloadBytesRejected) {
  // Strict decode: a valid payload with one extra byte is refused by
  // every decoder (catches silently-misaligned encoders early).
  std::string bytes;
  EncodeStatus(StatusRequest{5}, &bytes);
  std::string payload = ReadSingleFrame(bytes, FrameType::kStatus);
  payload.push_back('\0');
  StatusRequest got;
  EXPECT_FALSE(DecodeStatus(payload, &got));
}

TEST(NetProtocolTest, HostileKeywordCountRejected) {
  // An INGEST payload whose keyword count claims more entries than the
  // payload holds (or than the cap allows) must fail cleanly instead of
  // driving a huge allocation or an out-of-bounds read.
  for (const uint32_t claimed :
       {kMaxKeywordsPerFrame + 1, 0x7fffffffu, 1000u}) {
    util::BinaryWriter writer;
    writer.WriteU64(1);              // request_id
    writer.WriteU64(2);              // oid
    writer.WriteDouble(0.0);         // x
    writer.WriteDouble(0.0);         // y
    writer.WriteI64(0);              // timestamp
    writer.WriteU32(claimed);        // keyword count lies
    writer.WriteU32(7);              // ...but only one id follows
    IngestRequest got;
    EXPECT_FALSE(DecodeIngest(writer.buffer(), &got))
        << "claimed " << claimed;
  }
}

TEST(NetProtocolTest, TruncatedPayloadsRejectedByEveryDecoder) {
  // Every proper prefix of every valid payload decodes to false — no
  // decoder reads past the view it was handed.
  std::string bytes;
  IngestRequest ingest;
  ingest.request_id = 1;
  ingest.object = MakeObject();
  EncodeIngest(ingest, &bytes);
  const std::string ingest_payload =
      ReadSingleFrame(bytes, FrameType::kIngest);
  for (size_t cut = 0; cut < ingest_payload.size(); ++cut) {
    IngestRequest got;
    EXPECT_FALSE(DecodeIngest(
        std::string_view(ingest_payload.data(), cut), &got));
  }

  bytes.clear();
  QueryRequest query;
  query.request_id = 2;
  query.query = MakeRangeQuery();
  EncodeQuery(query, &bytes);
  const std::string query_payload =
      ReadSingleFrame(bytes, FrameType::kQuery);
  for (size_t cut = 0; cut < query_payload.size(); ++cut) {
    QueryRequest got;
    EXPECT_FALSE(
        DecodeQuery(std::string_view(query_payload.data(), cut), &got));
  }
}

TEST(NetProtocolTest, GarbageFuzzNeverCrashes) {
  // Deterministic fuzz: random byte strings through the reader and all
  // eight decoders. No assertion on outcomes beyond "no UB" — the
  // sanitizer builds are the oracle. Seeds cover empty through 4 KiB.
  util::Rng rng(20260809);
  for (int round = 0; round < 200; ++round) {
    const size_t len = rng.NextBounded(4096);
    std::string junk(len, '\0');
    for (char& c : junk) {
      c = static_cast<char>(rng.NextBounded(256));
    }

    FrameReader reader;
    // Feed in random-sized chunks to exercise reassembly paths.
    size_t offset = 0;
    while (offset < junk.size()) {
      const size_t chunk =
          1 + rng.NextBounded(static_cast<uint32_t>(junk.size() - offset));
      reader.Append(junk.data() + offset, chunk);
      offset += chunk;
      FrameReader::Frame frame;
      FrameReader::Outcome outcome;
      while ((outcome = reader.Next(&frame)) ==
             FrameReader::Outcome::kFrame) {
        // A frame that happens to parse is fine; decoders must still be
        // safe on its arbitrary payload.
      }
      if (outcome == FrameReader::Outcome::kProtocolError) break;
    }

    const std::string_view payload(junk);
    IngestRequest ingest;
    DecodeIngest(payload, &ingest);
    QueryRequest query;
    DecodeQuery(payload, &query);
    StatusRequest status;
    DecodeStatus(payload, &status);
    IngestAck ack;
    DecodeIngestAck(payload, &ack);
    QueryResponse query_response;
    DecodeQueryResponse(payload, &query_response);
    StatusResponse status_response;
    DecodeStatusResponse(payload, &status_response);
    RetryLater retry;
    DecodeRetryLater(payload, &retry);
    ErrorFrame error;
    DecodeError(payload, &error);
    HelloRequest hello;
    DecodeHello(payload, &hello);
    HelloAck hello_ack;
    DecodeHelloAck(payload, &hello_ack);
  }
}

TEST(NetProtocolTest, TraceContextTrailerRoundTrips) {
  // Sampled and unsampled trailers survive encode → decode on both
  // request types that carry them.
  for (const bool sampled : {true, false}) {
    IngestRequest ingest;
    ingest.request_id = 21;
    ingest.object = MakeObject();
    ingest.trace = {/*present=*/true, /*trace_id=*/0xdeadbeefcafe0001ull,
                    sampled};
    std::string bytes;
    EncodeIngest(ingest, &bytes);
    IngestRequest ingest_got;
    ASSERT_TRUE(DecodeIngest(ReadSingleFrame(bytes, FrameType::kIngest),
                             &ingest_got));
    EXPECT_TRUE(ingest_got.trace.present);
    EXPECT_EQ(ingest_got.trace.trace_id, ingest.trace.trace_id);
    EXPECT_EQ(ingest_got.trace.sampled, sampled);

    QueryRequest query;
    query.request_id = 22;
    query.query = MakeRangeQuery();
    query.trace = {/*present=*/true, /*trace_id=*/0x1234u, sampled};
    bytes.clear();
    EncodeQuery(query, &bytes);
    QueryRequest query_got;
    ASSERT_TRUE(DecodeQuery(ReadSingleFrame(bytes, FrameType::kQuery),
                            &query_got));
    EXPECT_TRUE(query_got.trace.present);
    EXPECT_EQ(query_got.trace.trace_id, 0x1234u);
    EXPECT_EQ(query_got.trace.sampled, sampled);
  }
}

TEST(NetProtocolTest, AbsentTrailerDecodesAsUntraced) {
  // The base encoding (trace.present = false) is byte-identical to the
  // pre-extension wire format, and decodes with present = false.
  QueryRequest req;
  req.request_id = 23;
  req.query = MakeRangeQuery();
  std::string bytes;
  EncodeQuery(req, &bytes);
  QueryRequest got;
  ASSERT_TRUE(DecodeQuery(ReadSingleFrame(bytes, FrameType::kQuery), &got));
  EXPECT_FALSE(got.trace.present);
  EXPECT_EQ(got.trace.trace_id, 0u);
  EXPECT_FALSE(got.trace.sampled);
}

TEST(NetProtocolTest, MalformedTrailerRejected) {
  QueryRequest req;
  req.request_id = 24;
  req.query = MakeRangeQuery();
  req.trace = {/*present=*/true, /*trace_id=*/77, /*sampled=*/true};
  std::string bytes;
  EncodeQuery(req, &bytes);
  std::string payload = ReadSingleFrame(bytes, FrameType::kQuery);

  // A truncated trailer (any length between base and full) is neither
  // "absent" nor "complete": strict reject.
  for (size_t cut = 1; cut < kTraceContextBytes; ++cut) {
    QueryRequest got;
    EXPECT_FALSE(DecodeQuery(
        std::string_view(payload.data(), payload.size() - cut), &got))
        << "trailer short by " << cut;
  }
  // Unknown flag bits are a protocol violation, not a soft ignore.
  payload.back() = static_cast<char>(0x02);
  QueryRequest got;
  EXPECT_FALSE(DecodeQuery(payload, &got));
}

TEST(NetProtocolTest, HelloRoundTripsAndReaderAcceptsHandshakeTypes) {
  HelloRequest hello;
  hello.request_id = 41;
  hello.protocol_version = kProtocolVersion;
  hello.feature_flags = kFeatureTraceContext;
  std::string bytes;
  EncodeHello(hello, &bytes);
  HelloRequest hello_got;
  ASSERT_TRUE(
      DecodeHello(ReadSingleFrame(bytes, FrameType::kHello), &hello_got));
  EXPECT_EQ(hello_got.request_id, 41u);
  EXPECT_EQ(hello_got.protocol_version, kProtocolVersion);
  EXPECT_EQ(hello_got.feature_flags, kFeatureTraceContext);

  HelloAck ack;
  ack.request_id = 41;
  ack.protocol_version = kProtocolVersion;
  ack.feature_flags = 0;  // Server may negotiate features away.
  bytes.clear();
  EncodeHelloAck(ack, &bytes);
  HelloAck ack_got;
  ASSERT_TRUE(DecodeHelloAck(ReadSingleFrame(bytes, FrameType::kHelloAck),
                             &ack_got));
  EXPECT_EQ(ack_got.feature_flags, 0u);

  // The reader accepts the two handshake types and still rejects the
  // first unassigned id.
  util::BinaryWriter writer;
  writer.WriteU32(0);
  std::string junk = writer.TakeBuffer();
  junk.push_back(static_cast<char>(11));
  FrameReader reader;
  reader.Append(junk.data(), junk.size());
  FrameReader::Frame frame;
  EXPECT_EQ(reader.Next(&frame), FrameReader::Outcome::kProtocolError);
}

TEST(SelfPipeTest, BothEndsNonBlockingAndNeverBlockTheCaller) {
  SelfPipe pipe;
  ASSERT_TRUE(pipe.Open().ok());
  ASSERT_TRUE(pipe.valid());
  for (const int fd : {pipe.read_fd(), pipe.write_fd()}) {
    const int flags = ::fcntl(fd, F_GETFL);
    ASSERT_GE(flags, 0);
    ASSERT_NE(flags & O_NONBLOCK, 0) << "fd " << fd;
  }

  // Drain() with no wake pending returns instead of waiting for a byte.
  pipe.Drain();

  // More wakes than the pipe holds (64 KiB on Linux): the surplus is
  // dropped, not waited on.
  for (int i = 0; i < 200 * 1024; ++i) pipe.Notify();
  pollfd readable{pipe.read_fd(), POLLIN, 0};
  ASSERT_EQ(::poll(&readable, 1, 0), 1);

  // One Drain() consumes every pending wake.
  pipe.Drain();
  readable.revents = 0;
  EXPECT_EQ(::poll(&readable, 1, 0), 0);

  pipe.Close();
  EXPECT_FALSE(pipe.valid());
}

}  // namespace
}  // namespace latest::net
