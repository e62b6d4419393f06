#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace latest::net {

namespace {

std::string Errno(const char* what) {
  return std::string(what) + " failed: " + std::strerror(errno);
}

}  // namespace

void Fd::Reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

util::Result<Fd> ListenLoopback(uint16_t port, int backlog,
                                uint16_t* bound_port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return util::Status::Internal(Errno("socket()"));
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return util::Status::Internal(Errno("bind()"));
  }
  if (::listen(fd.get(), backlog) != 0) {
    return util::Status::Internal(Errno("listen()"));
  }
  socklen_t addr_len = sizeof(addr);
  if (bound_port != nullptr &&
      ::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) == 0) {
    *bound_port = ntohs(addr.sin_port);
  }
  return fd;
}

util::Result<Fd> ConnectLoopback(uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return util::Status::Internal(Errno("socket()"));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) return util::Status::Internal(Errno("connect()"));
  return fd;
}

util::Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return util::Status::Internal(Errno("fcntl(O_NONBLOCK)"));
  }
  return util::Status::Ok();
}

void SetIoTimeouts(int fd, int timeout_ms) {
  timeval timeout{};
  timeout.tv_sec = timeout_ms / 1000;
  timeout.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
}

void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool SendAll(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

util::Status SelfPipe::Open() {
  int fds[2];
  if (::pipe(fds) != 0) return util::Status::Internal(Errno("pipe()"));
  read_end_.Reset(fds[0]);
  write_end_.Reset(fds[1]);
  // Non-blocking on both ends: Drain() consumes everything without a
  // final blocking read, and Notify() on a full pipe returns EAGAIN
  // instead of blocking the notifier (the loop is already scheduled to
  // wake in that case). A pipe that cannot be made so is not opened.
  for (const int fd : fds) {
    if (util::Status status = SetNonBlocking(fd); !status.ok()) {
      Close();
      return status;
    }
  }
  return util::Status::Ok();
}

void SelfPipe::Close() {
  read_end_.Reset();
  write_end_.Reset();
}

void SelfPipe::Notify() {
  if (!write_end_.valid()) return;
  const char byte = 1;
  // EAGAIN (pipe full) is success: a wake is already pending. Write is
  // atomic for one byte, so no partial-write handling is needed.
  [[maybe_unused]] const ssize_t n = ::write(write_end_.get(), &byte, 1);
}

void SelfPipe::Drain() {
  if (!read_end_.valid()) return;
  char buffer[256];
  while (::read(read_end_.get(), buffer, sizeof(buffer)) > 0) {
  }
}

}  // namespace latest::net
