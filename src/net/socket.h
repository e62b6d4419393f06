// Shared POSIX socket plumbing for the network planes.
//
// Both socket surfaces of the system — the introspection HTTP server
// (obs/http_server) and the query-serving RPC plane (net/serve_server) —
// need the same handful of primitives: an RAII file descriptor, a
// loopback listener with the bound port read back, non-blocking mode,
// a self-pipe to wake a poll loop, and a retrying full-buffer send.
// They live here, dependency-free below both layers, so the two servers
// share one audited implementation instead of two copies.

#ifndef LATEST_NET_SOCKET_H_
#define LATEST_NET_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <utility>

#include "util/status.h"

namespace latest::net {

/// Owning file descriptor: closes on destruction, moves, never copies.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { Reset(); }

  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(other.Release()) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.Release();
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Relinquishes ownership without closing.
  int Release() { return std::exchange(fd_, -1); }

  /// Closes the held descriptor (if any) and optionally adopts `fd`.
  void Reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// Binds 127.0.0.1:`port` (0 picks an ephemeral port), listens with
/// `backlog`, and resolves the actually-bound port into `*bound_port`.
util::Result<Fd> ListenLoopback(uint16_t port, int backlog,
                                uint16_t* bound_port);

/// Connects to 127.0.0.1:`port` (blocking).
util::Result<Fd> ConnectLoopback(uint16_t port);

/// Switches the descriptor to non-blocking mode.
util::Status SetNonBlocking(int fd);

/// Sets SO_RCVTIMEO and SO_SNDTIMEO (blocking sockets only).
void SetIoTimeouts(int fd, int timeout_ms);

/// Disables Nagle's algorithm (small RPC frames must not wait 40 ms).
void SetNoDelay(int fd);

/// Sends the whole buffer on a blocking socket, retrying on EINTR;
/// false on any other error or timeout.
bool SendAll(int fd, const char* data, size_t size);

/// A pipe whose read end wakes a poll loop: any thread calls Notify(),
/// the poll loop includes read_fd() in its fd set and calls Drain() when
/// it becomes readable. Both ends are close-on-destruction.
class SelfPipe {
 public:
  SelfPipe() = default;
  SelfPipe(const SelfPipe&) = delete;
  SelfPipe& operator=(const SelfPipe&) = delete;

  /// Creates the pipe, both ends non-blocking. On failure nothing stays
  /// open: read_fd() == -1.
  util::Status Open();
  void Close();

  int read_fd() const { return read_end_.get(); }
  int write_fd() const { return write_end_.get(); }
  bool valid() const { return read_end_.valid(); }

  /// Wakes the poll loop. Safe from any thread; a full pipe is fine
  /// (the loop is already scheduled to wake).
  void Notify();

  /// Consumes all pending wake bytes.
  void Drain();

 private:
  Fd read_end_;
  Fd write_end_;
};

}  // namespace latest::net

#endif  // LATEST_NET_SOCKET_H_
