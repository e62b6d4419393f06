// Blocking client for the serve plane: one connection, framed send /
// receive. Used by the loadgen, the e2e tests, and perfbench; production
// clients would speak the same five-byte-header frames.

#ifndef LATEST_NET_CLIENT_H_
#define LATEST_NET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "net/protocol.h"
#include "net/socket.h"
#include "util/status.h"

namespace latest::net {

/// One decoded server-to-client frame.
struct ServeResponse {
  FrameType type = FrameType::kError;
  IngestAck ack;           // kIngestAck.
  QueryResponse query;     // kQueryResponse.
  StatusResponse status;   // kStatusResponse.
  RetryLater retry;        // kRetryLater.
  ErrorFrame error;        // kError.
  HelloAck hello;          // kHelloAck.
};

/// Blocking framed connection to a ServeServer.
class ServeClient {
 public:
  /// Connects to 127.0.0.1:`port`; `io_timeout_ms` bounds every blocking
  /// read and write (0 keeps the socket unbounded).
  static util::Result<std::unique_ptr<ServeClient>> Connect(
      uint16_t port, int io_timeout_ms = 5000);

  /// Connects and negotiates the trace-context feature with a HELLO
  /// exchange. A server that predates HELLO answers with ERROR and
  /// closes; this helper then transparently reconnects untraced, so the
  /// returned client always works — check trace_enabled() to see what
  /// was negotiated.
  static util::Result<std::unique_ptr<ServeClient>> ConnectNegotiated(
      uint16_t port, int io_timeout_ms = 5000);

  /// Whether the server acknowledged the trace-context feature. When
  /// false, callers must not attach WireTraceContext to requests (an
  /// old server would reject the unexpected trailer bytes).
  bool trace_enabled() const { return trace_enabled_; }

  /// Send one request frame. Writes block until fully sent.
  util::Status SendIngest(const IngestRequest& req);
  util::Status SendQuery(const QueryRequest& req);
  util::Status SendStatus(const StatusRequest& req);

  /// Sends pre-encoded frame bytes as-is (batched pipelining).
  util::Status SendRaw(const std::string& bytes);

  /// Blocks for the next complete response frame. Fails on timeout,
  /// connection loss, or a malformed frame from the server.
  util::Result<ServeResponse> ReadResponse();

 private:
  explicit ServeClient(Fd fd) : fd_(std::move(fd)) {}

  Fd fd_;
  FrameReader reader_;
  bool trace_enabled_ = false;
};

}  // namespace latest::net

#endif  // LATEST_NET_CLIENT_H_
