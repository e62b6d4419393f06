#include "net/protocol.h"

#include <cstring>

#include "util/serialization.h"

namespace latest::net {

namespace {

/// Replaces the placeholder length at `header_at` once the payload size
/// is known, then copies the finished frame into `out`.
void FinishFrame(FrameType type, const util::BinaryWriter& payload,
                 std::string* out) {
  const uint32_t len = static_cast<uint32_t>(payload.buffer().size());
  char header[kFrameHeaderBytes];
  std::memcpy(header, &len, sizeof(len));
  header[4] = static_cast<char>(type);
  out->append(header, kFrameHeaderBytes);
  out->append(payload.buffer());
}

void WriteKeywords(const std::vector<stream::KeywordId>& keywords,
                   util::BinaryWriter* w) {
  w->WriteU32(static_cast<uint32_t>(keywords.size()));
  w->WriteBytes(keywords.data(),
                keywords.size() * sizeof(stream::KeywordId));
}

bool ReadKeywords(util::BinaryReader* r,
                  std::vector<stream::KeywordId>* keywords) {
  uint32_t count = 0;
  if (!r->ReadU32(&count) || count > kMaxKeywordsPerFrame) return false;
  if (r->remaining() < count * sizeof(stream::KeywordId)) return false;
  keywords->resize(count);
  return r->ReadBytes(keywords->data(),
                      count * sizeof(stream::KeywordId));
}

void WriteTraceContext(const WireTraceContext& trace,
                       util::BinaryWriter* w) {
  if (!trace.present) return;
  w->WriteU64(trace.trace_id);
  const uint8_t flags = trace.sampled ? kTraceFlagSampled : 0;
  w->WriteBytes(&flags, 1);
}

/// Consumes the optional trailer. After the keywords the reader is
/// either exhausted (no trailer) or holds exactly kTraceContextBytes;
/// anything else — including unknown flag bits — is a reject.
bool ReadTraceContext(util::BinaryReader* r, WireTraceContext* trace) {
  if (r->exhausted()) {
    *trace = WireTraceContext{};
    return true;
  }
  if (r->remaining() != kTraceContextBytes) return false;
  uint8_t flags = 0;
  if (!r->ReadU64(&trace->trace_id) || !r->ReadBytes(&flags, 1)) {
    return false;
  }
  if ((flags & ~kTraceFlagSampled) != 0) return false;
  trace->present = true;
  trace->sampled = (flags & kTraceFlagSampled) != 0;
  return true;
}

}  // namespace

void EncodeIngest(const IngestRequest& req, std::string* out) {
  util::BinaryWriter w;
  w.WriteU64(req.request_id);
  w.WriteU64(req.object.oid);
  w.WriteDouble(req.object.loc.x);
  w.WriteDouble(req.object.loc.y);
  w.WriteI64(req.object.timestamp);
  WriteKeywords(req.object.keywords, &w);
  WriteTraceContext(req.trace, &w);
  FinishFrame(FrameType::kIngest, w, out);
}

void EncodeQuery(const QueryRequest& req, std::string* out) {
  util::BinaryWriter w;
  w.WriteU64(req.request_id);
  w.WriteI64(req.query.timestamp);
  w.WriteU32(req.query.HasRange() ? 1 : 0);
  if (req.query.HasRange()) {
    w.WriteDouble(req.query.range->min_x);
    w.WriteDouble(req.query.range->min_y);
    w.WriteDouble(req.query.range->max_x);
    w.WriteDouble(req.query.range->max_y);
  }
  WriteKeywords(req.query.keywords, &w);
  WriteTraceContext(req.trace, &w);
  FinishFrame(FrameType::kQuery, w, out);
}

void EncodeStatus(const StatusRequest& req, std::string* out) {
  util::BinaryWriter w;
  w.WriteU64(req.request_id);
  FinishFrame(FrameType::kStatus, w, out);
}

void EncodeHello(const HelloRequest& req, std::string* out) {
  util::BinaryWriter w;
  w.WriteU64(req.request_id);
  w.WriteU32(req.protocol_version);
  w.WriteU32(req.feature_flags);
  FinishFrame(FrameType::kHello, w, out);
}

void EncodeIngestAck(const IngestAck& ack, std::string* out) {
  util::BinaryWriter w;
  w.WriteU64(ack.request_id);
  FinishFrame(FrameType::kIngestAck, w, out);
}

void EncodeQueryResponse(const QueryResponse& resp, std::string* out) {
  util::BinaryWriter w;
  w.WriteU64(resp.request_id);
  w.WriteDouble(resp.estimate);
  w.WriteU64(resp.actual);
  w.WriteU32(resp.phase);
  w.WriteU32(resp.active_kind);
  FinishFrame(FrameType::kQueryResponse, w, out);
}

void EncodeStatusResponse(const StatusResponse& resp, std::string* out) {
  util::BinaryWriter w;
  w.WriteU64(resp.request_id);
  w.WriteU32(resp.phase);
  w.WriteU32(resp.active_kind);
  w.WriteU64(resp.objects_ingested);
  w.WriteU64(resp.queries_answered);
  w.WriteU64(resp.shed);
  FinishFrame(FrameType::kStatusResponse, w, out);
}

void EncodeRetryLater(const RetryLater& retry, std::string* out) {
  util::BinaryWriter w;
  w.WriteU64(retry.request_id);
  w.WriteU32(retry.rejected_type);
  w.WriteU32(retry.backoff_hint_ms);
  FinishFrame(FrameType::kRetryLater, w, out);
}

void EncodeError(const ErrorFrame& error, std::string* out) {
  util::BinaryWriter w;
  w.WriteU64(error.request_id);
  w.WriteString(error.message);
  FinishFrame(FrameType::kError, w, out);
}

void EncodeHelloAck(const HelloAck& ack, std::string* out) {
  util::BinaryWriter w;
  w.WriteU64(ack.request_id);
  w.WriteU32(ack.protocol_version);
  w.WriteU32(ack.feature_flags);
  FinishFrame(FrameType::kHelloAck, w, out);
}

bool DecodeIngest(std::string_view payload, IngestRequest* out) {
  util::BinaryReader r(payload);
  if (!r.ReadU64(&out->request_id)) return false;
  if (!r.ReadU64(&out->object.oid)) return false;
  if (!r.ReadDouble(&out->object.loc.x)) return false;
  if (!r.ReadDouble(&out->object.loc.y)) return false;
  if (!r.ReadI64(&out->object.timestamp)) return false;
  if (!ReadKeywords(&r, &out->object.keywords)) return false;
  if (!ReadTraceContext(&r, &out->trace)) return false;
  return r.exhausted();
}

bool DecodeQuery(std::string_view payload, QueryRequest* out) {
  util::BinaryReader r(payload);
  if (!r.ReadU64(&out->request_id)) return false;
  if (!r.ReadI64(&out->query.timestamp)) return false;
  uint32_t has_range = 0;
  if (!r.ReadU32(&has_range) || has_range > 1) return false;
  if (has_range == 1) {
    geo::Rect range;
    if (!r.ReadDouble(&range.min_x)) return false;
    if (!r.ReadDouble(&range.min_y)) return false;
    if (!r.ReadDouble(&range.max_x)) return false;
    if (!r.ReadDouble(&range.max_y)) return false;
    out->query.range = range;
  } else {
    out->query.range.reset();
  }
  if (!ReadKeywords(&r, &out->query.keywords)) return false;
  if (!ReadTraceContext(&r, &out->trace)) return false;
  // An RC-DVQ query carries at least one predicate.
  if (!out->query.HasRange() && !out->query.HasKeywords()) return false;
  return r.exhausted();
}

bool DecodeStatus(std::string_view payload, StatusRequest* out) {
  util::BinaryReader r(payload);
  return r.ReadU64(&out->request_id) && r.exhausted();
}

bool DecodeHello(std::string_view payload, HelloRequest* out) {
  util::BinaryReader r(payload);
  return r.ReadU64(&out->request_id) &&
         r.ReadU32(&out->protocol_version) &&
         r.ReadU32(&out->feature_flags) && r.exhausted();
}

bool DecodeIngestAck(std::string_view payload, IngestAck* out) {
  util::BinaryReader r(payload);
  return r.ReadU64(&out->request_id) && r.exhausted();
}

bool DecodeQueryResponse(std::string_view payload, QueryResponse* out) {
  util::BinaryReader r(payload);
  return r.ReadU64(&out->request_id) && r.ReadDouble(&out->estimate) &&
         r.ReadU64(&out->actual) && r.ReadU32(&out->phase) &&
         r.ReadU32(&out->active_kind) && r.exhausted();
}

bool DecodeStatusResponse(std::string_view payload, StatusResponse* out) {
  util::BinaryReader r(payload);
  return r.ReadU64(&out->request_id) && r.ReadU32(&out->phase) &&
         r.ReadU32(&out->active_kind) &&
         r.ReadU64(&out->objects_ingested) &&
         r.ReadU64(&out->queries_answered) && r.ReadU64(&out->shed) &&
         r.exhausted();
}

bool DecodeRetryLater(std::string_view payload, RetryLater* out) {
  util::BinaryReader r(payload);
  return r.ReadU64(&out->request_id) && r.ReadU32(&out->rejected_type) &&
         r.ReadU32(&out->backoff_hint_ms) && r.exhausted();
}

bool DecodeError(std::string_view payload, ErrorFrame* out) {
  util::BinaryReader r(payload);
  return r.ReadU64(&out->request_id) && r.ReadString(&out->message) &&
         r.exhausted();
}

bool DecodeHelloAck(std::string_view payload, HelloAck* out) {
  util::BinaryReader r(payload);
  return r.ReadU64(&out->request_id) &&
         r.ReadU32(&out->protocol_version) &&
         r.ReadU32(&out->feature_flags) && r.exhausted();
}

void FrameReader::Append(const char* data, size_t size) {
  // Compact once the consumed prefix dominates, so long-lived connections
  // don't grow the buffer without bound.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, size);
}

FrameReader::Outcome FrameReader::Next(Frame* out) {
  if (poisoned_) return Outcome::kProtocolError;
  const size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) return Outcome::kNeedMore;
  uint32_t payload_len = 0;
  std::memcpy(&payload_len, buffer_.data() + consumed_,
              sizeof(payload_len));
  const uint8_t type =
      static_cast<uint8_t>(buffer_[consumed_ + 4]);
  // Any known frame type passes here (the reader serves both client and
  // server ends); direction policy is the dispatcher's concern.
  if (payload_len > kMaxPayloadBytes || type < 1 || type > 10) {
    poisoned_ = true;
    return Outcome::kProtocolError;
  }
  if (available < kFrameHeaderBytes + payload_len) {
    return Outcome::kNeedMore;
  }
  out->type = type;
  out->payload = std::string_view(
      buffer_.data() + consumed_ + kFrameHeaderBytes, payload_len);
  consumed_ += kFrameHeaderBytes + payload_len;
  return Outcome::kFrame;
}

}  // namespace latest::net
