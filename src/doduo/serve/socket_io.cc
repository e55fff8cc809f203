#include "doduo/serve/socket_io.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace doduo::serve {

namespace {

using util::Status;

Status Errno(const char* what) {
  // strerror() hands back a static buffer shared across threads; the GNU
  // strerror_r either fills `buf` or returns an immutable static string,
  // both safe to read concurrently (connection threads all come through
  // here on I/O errors).
  char buf[128];
  return Status::IoError(std::string(what) + ": " +
                         strerror_r(errno, buf, sizeof(buf)));
}

/// Parses host as a dotted quad; "localhost" maps to 127.0.0.1. No DNS —
/// the server and tests only ever bind/connect loopback or explicit IPs.
Status FillAddr(const std::string& host, int port, sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<uint16_t>(port));
  const std::string ip = (host == "localhost" || host.empty()) ? "127.0.0.1"
                                                               : host;
  if (inet_pton(AF_INET, ip.c_str(), &addr->sin_addr) != 1) {
    return Status::InvalidArgument("cannot parse host address: " + host);
  }
  return Status::Ok();
}

/// Disables Nagle's algorithm: every frame is written whole by SendAll, so
/// holding back a small response until the peer ACKs only adds latency
/// (against a peer that delays its ACKs, ~40 ms per response).
Status SetNoDelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    return Errno("setsockopt(TCP_NODELAY)");
  }
  return Status::Ok();
}

/// Waits for `events` on fd. Returns true when ready, false on timeout.
util::Result<bool> PollOne(int fd, short events, int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = events;
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno == EINTR) continue;
    return Errno("poll");
  }
}

}  // namespace

void UniqueFd::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

util::Result<UniqueFd> ListenTcp(const std::string& host, int port,
                                 int backlog) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");
  const int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) !=
      0) {
    return Errno("setsockopt(SO_REUSEADDR)");
  }
  sockaddr_in addr;
  if (Status s = FillAddr(host, port, &addr); !s.ok()) return s;
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Errno("bind");
  }
  if (::listen(fd.get(), backlog) != 0) return Errno("listen");
  return fd;
}

util::Result<int> LocalPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Errno("getsockname");
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

util::Result<UniqueFd> AcceptWithTimeout(int listen_fd, int timeout_ms) {
  auto ready = PollOne(listen_fd, POLLIN, timeout_ms);
  if (!ready.ok()) return ready.status();
  if (!ready.value()) return UniqueFd();  // timeout: caller checks stop flag
  for (;;) {
    UniqueFd fd(::accept(listen_fd, nullptr, nullptr));
    if (fd.valid()) {
      if (Status s = SetNoDelay(fd.get()); !s.ok()) return s;
      return fd;
    }
    if (errno == EINTR) continue;
    // The peer may have gone away between poll and accept; that is a
    // timeout-shaped non-event, not a server error.
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) {
      return UniqueFd();
    }
    return Errno("accept");
  }
}

util::Result<UniqueFd> ConnectTcp(const std::string& host, int port) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");
  sockaddr_in addr;
  if (Status s = FillAddr(host, port, &addr); !s.ok()) return s;
  for (;;) {
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      if (Status s = SetNoDelay(fd.get()); !s.ok()) return s;
      return fd;
    }
    if (errno == EINTR) continue;
    return Errno("connect");
  }
}

util::Status SendAll(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Errno("send");
  }
  return Status::Ok();
}

util::Status ShutdownWrite(int fd) {
  if (::shutdown(fd, SHUT_WR) != 0 && errno != ENOTCONN) {
    return Errno("shutdown");
  }
  return Status::Ok();
}

util::Result<RecvResult> RecvSome(int fd, char* buffer, size_t cap,
                                  int timeout_ms) {
  auto ready = PollOne(fd, POLLIN, timeout_ms);
  if (!ready.ok()) return ready.status();
  if (!ready.value()) return RecvResult{IoEvent::kTimeout, 0};
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, cap, 0);
    if (n > 0) return RecvResult{IoEvent::kData, static_cast<size_t>(n)};
    if (n == 0) return RecvResult{IoEvent::kEof, 0};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return RecvResult{IoEvent::kTimeout, 0};
    }
    return Errno("recv");
  }
}

}  // namespace doduo::serve
