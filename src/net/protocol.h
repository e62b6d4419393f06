// Wire protocol of the query-serving data plane.
//
// Frames are length-prefixed binary, little-endian, dependency-free:
//
//   u32 payload_len   (bytes after the 5-byte header; capped at 1 MiB)
//   u8  frame_type    (FrameType)
//   ...payload        (per-type layout below, util::BinaryWriter format)
//
// Request payloads:
//   INGEST  : u64 request_id, u64 oid, f64 x, f64 y, i64 timestamp,
//             u32 num_keywords, u32 keyword[num_keywords]
//             [, trace-context trailer]
//   QUERY   : u64 request_id, i64 timestamp, u32 has_range,
//             [f64 min_x, f64 min_y, f64 max_x, f64 max_y when has_range],
//             u32 num_keywords, u32 keyword[num_keywords]
//             [, trace-context trailer]
//   STATUS  : u64 request_id
//   HELLO   : u64 request_id, u32 protocol_version, u32 feature_flags
//
// Response payloads:
//   INGEST_ACK : u64 request_id
//   QUERY_RESP : u64 request_id, f64 estimate, u64 actual, u32 phase,
//                u32 active_kind
//   STATUS_RESP: u64 request_id, u32 phase, u32 active_kind,
//                u64 objects_ingested, u64 queries_answered, u64 shed
//   RETRY_LATER: u64 request_id, u32 rejected_type, u32 backoff_hint_ms
//   ERROR      : u64 request_id (0 when unparseable), string message;
//                the server closes the connection after sending it.
//   HELLO_ACK  : u64 request_id, u32 protocol_version, u32 feature_flags
//
// Trace-context trailer (optional, exactly 9 bytes when present):
//   u64 trace_id, u8 flags (bit 0 = sampled, others must be zero)
// The keyword count makes the base payload length deterministic, so a
// decoder distinguishes "no trailer" (reader exhausted after keywords)
// from "trailer" (exactly 9 bytes remain) without any version field in
// the frame itself. Old decoders reject trailered frames as trailing
// garbage, which is why a new client only attaches trace context after
// a HELLO/HELLO_ACK exchange advertises kFeatureTraceContext; an old
// server instead answers HELLO (an unknown frame type to it) with an
// ERROR and closes, and the client reconnects untraced.
//
// Keyword ids are the server's interned dictionary ids; loadgen and the
// scenario streams speak interned ids natively, so no string tokenization
// crosses the wire. Decoding is strict: trailing payload bytes, oversized
// keyword counts, or truncation reject the frame without UB.

#ifndef LATEST_NET_PROTOCOL_H_
#define LATEST_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "stream/object.h"
#include "stream/query.h"

namespace latest::net {

/// Frame header: u32 payload length + u8 type.
inline constexpr size_t kFrameHeaderBytes = 5;

/// Largest accepted payload. A QUERY/INGEST frame is tens to hundreds of
/// bytes; anything near this cap is a corrupt or hostile peer.
inline constexpr uint32_t kMaxPayloadBytes = 1u << 20;

/// Largest accepted keyword count per frame (also bounds decode cost).
inline constexpr uint32_t kMaxKeywordsPerFrame = 1u << 16;

enum class FrameType : uint8_t {
  kIngest = 1,
  kQuery = 2,
  kStatus = 3,
  kIngestAck = 4,
  kQueryResponse = 5,
  kStatusResponse = 6,
  kRetryLater = 7,
  kError = 8,
  kHello = 9,
  kHelloAck = 10,
};

/// Version advertised in HELLO/HELLO_ACK. Version 1 servers (PR 9) do
/// not speak HELLO at all; version 2 adds the handshake and the
/// trace-context trailer.
inline constexpr uint32_t kProtocolVersion = 2;

/// HELLO/HELLO_ACK feature bits.
inline constexpr uint32_t kFeatureTraceContext = 1u << 0;

/// Trace-context trailer flag bits (u8 on the wire).
inline constexpr uint8_t kTraceFlagSampled = 1u << 0;

/// Wire size of the optional trace-context trailer.
inline constexpr size_t kTraceContextBytes = 9;

/// Optional request-scoped trace context carried by INGEST/QUERY.
struct WireTraceContext {
  bool present = false;
  uint64_t trace_id = 0;
  bool sampled = false;
};

/// Decoded request frames.
struct IngestRequest {
  uint64_t request_id = 0;
  stream::GeoTextObject object;
  WireTraceContext trace;
};

struct QueryRequest {
  uint64_t request_id = 0;
  stream::Query query;
  WireTraceContext trace;
};

struct StatusRequest {
  uint64_t request_id = 0;
};

struct HelloRequest {
  uint64_t request_id = 0;
  uint32_t protocol_version = kProtocolVersion;
  uint32_t feature_flags = kFeatureTraceContext;
};

/// Decoded response frames.
struct IngestAck {
  uint64_t request_id = 0;
};

struct QueryResponse {
  uint64_t request_id = 0;
  double estimate = 0.0;
  uint64_t actual = 0;
  uint32_t phase = 0;
  uint32_t active_kind = 0;
};

struct StatusResponse {
  uint64_t request_id = 0;
  uint32_t phase = 0;
  uint32_t active_kind = 0;
  uint64_t objects_ingested = 0;
  uint64_t queries_answered = 0;
  uint64_t shed = 0;
};

struct RetryLater {
  uint64_t request_id = 0;
  uint32_t rejected_type = 0;  // FrameType of the shed request.
  uint32_t backoff_hint_ms = 0;
};

struct ErrorFrame {
  uint64_t request_id = 0;
  std::string message;
};

struct HelloAck {
  uint64_t request_id = 0;
  uint32_t protocol_version = kProtocolVersion;
  uint32_t feature_flags = kFeatureTraceContext;
};

/// Encoders: append one complete frame (header + payload) to `out`.
void EncodeIngest(const IngestRequest& req, std::string* out);
void EncodeQuery(const QueryRequest& req, std::string* out);
void EncodeStatus(const StatusRequest& req, std::string* out);
void EncodeHello(const HelloRequest& req, std::string* out);
void EncodeIngestAck(const IngestAck& ack, std::string* out);
void EncodeQueryResponse(const QueryResponse& resp, std::string* out);
void EncodeStatusResponse(const StatusResponse& resp, std::string* out);
void EncodeRetryLater(const RetryLater& retry, std::string* out);
void EncodeError(const ErrorFrame& error, std::string* out);
void EncodeHelloAck(const HelloAck& ack, std::string* out);

/// Payload decoders: strict (reject truncated, oversized, and
/// trailing-byte payloads); false leaves `*out` unspecified.
bool DecodeIngest(std::string_view payload, IngestRequest* out);
bool DecodeQuery(std::string_view payload, QueryRequest* out);
bool DecodeStatus(std::string_view payload, StatusRequest* out);
bool DecodeHello(std::string_view payload, HelloRequest* out);
bool DecodeIngestAck(std::string_view payload, IngestAck* out);
bool DecodeQueryResponse(std::string_view payload, QueryResponse* out);
bool DecodeStatusResponse(std::string_view payload, StatusResponse* out);
bool DecodeRetryLater(std::string_view payload, RetryLater* out);
bool DecodeError(std::string_view payload, ErrorFrame* out);
bool DecodeHelloAck(std::string_view payload, HelloAck* out);

/// Incremental frame scanner over a connection's receive buffer.
///
/// Feed bytes with Append; Next yields complete frames (type + payload
/// view into the internal buffer, valid until the next Append/Next call)
/// until it returns kNeedMore. A frame violating the header rules
/// (unknown type, payload over the cap) poisons the stream: Next returns
/// kProtocolError and the connection must be dropped, since resync inside
/// a length-prefixed stream is impossible.
class FrameReader {
 public:
  enum class Outcome { kFrame, kNeedMore, kProtocolError };

  struct Frame {
    uint8_t type = 0;
    std::string_view payload;
  };

  void Append(const char* data, size_t size);
  Outcome Next(Frame* out);

  /// Bytes buffered but not yet consumed (backpressure accounting).
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  size_t consumed_ = 0;  // Prefix already handed out as frames.
  bool poisoned_ = false;
};

}  // namespace latest::net

#endif  // LATEST_NET_PROTOCOL_H_
