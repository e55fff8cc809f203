#ifndef DODUO_SERVE_SOCKET_IO_H_
#define DODUO_SERVE_SOCKET_IO_H_

#include <cstddef>
#include <string>
#include <utility>

#include "doduo/util/status.h"

namespace doduo::serve {

// Status-returning wrappers around POSIX TCP sockets. This header/.cc pair
// is the ONLY place in the serve tree allowed to touch the raw socket API:
// doduo_lint's serve-raw-io rule flags send/recv/read/write/close/... in
// any other serve/ file, so every I/O result flows through the
// [[nodiscard]] Status surface (DESIGN §11/§12) and EINTR/partial-write
// handling lives in exactly one place.

/// RAII file descriptor. Move-only; closes on destruction.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.release();
    }
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  ~UniqueFd() { Close(); }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }
  void Close();

 private:
  int fd_ = -1;
};

/// Creates a listening TCP socket bound to host:port (port 0 = ephemeral;
/// read the assigned port back with LocalPort).
[[nodiscard]] util::Result<UniqueFd> ListenTcp(const std::string& host,
                                               int port, int backlog);

/// The local port a bound socket listens on.
[[nodiscard]] util::Result<int> LocalPort(int fd);

/// Waits up to `timeout_ms` for a pending connection. Returns an invalid
/// UniqueFd on timeout (OK status), so accept loops can poll a stop flag.
/// An accepted socket has TCP_NODELAY set.
[[nodiscard]] util::Result<UniqueFd> AcceptWithTimeout(int listen_fd,
                                                       int timeout_ms);

/// Blocking TCP connect to host:port; the socket has TCP_NODELAY set.
[[nodiscard]] util::Result<UniqueFd> ConnectTcp(const std::string& host,
                                                int port);

/// Writes all `size` bytes (handles partial writes and EINTR; SIGPIPE is
/// suppressed — a closed peer surfaces as an IoError).
[[nodiscard]] util::Status SendAll(int fd, const char* data, size_t size);

/// Half-closes the write side so a blocked peer read sees EOF.
[[nodiscard]] util::Status ShutdownWrite(int fd);

/// One receive attempt with a timeout.
enum class IoEvent {
  kData,     // `bytes` payload bytes were read
  kTimeout,  // nothing arrived within timeout_ms
  kEof,      // orderly peer shutdown
};
struct RecvResult {
  IoEvent event = IoEvent::kTimeout;
  size_t bytes = 0;
};

/// Reads up to `cap` bytes into `buffer`, waiting at most `timeout_ms`
/// (-1 = forever). Errors (ECONNRESET, ...) come back as IoError.
[[nodiscard]] util::Result<RecvResult> RecvSome(int fd, char* buffer,
                                                size_t cap, int timeout_ms);

}  // namespace doduo::serve

#endif  // DODUO_SERVE_SOCKET_IO_H_
