#ifndef DODUO_UTIL_STATUS_H_
#define DODUO_UTIL_STATUS_H_

#include <string>
#include <utility>
#include <variant>

#include "doduo/util/check.h"

namespace doduo::util {

/// Error categories for recoverable failures (mostly file/format IO).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kIoError,
  kOutOfRange,
  kFailedPrecondition,
  kResourceExhausted,
};

/// Returns a short human-readable name of `code` ("OK", "IoError", ...).
const char* StatusCodeName(StatusCode code);

/// A lightweight success-or-error value, used instead of exceptions for
/// recoverable errors. Programmer errors use DODUO_CHECK instead.
///
/// [[nodiscard]] on the type makes every ignored Status-returning call a
/// compile-time error: the build passes -Werror=unused-result. `(void)` is
/// the explicit discard.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Formats "<CodeName>: <message>" for logging.
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Holds either a value of type T or an error Status. Accessing the value of
/// an errored result is a fatal programmer error.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit from value and from error status, mirroring absl::StatusOr.
  Result(T value) : state_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : state_(std::move(status)) {  // NOLINT
    DODUO_CHECK(!std::get<Status>(state_).ok())
        << "Result constructed from OK status without a value";
  }

  bool ok() const { return std::holds_alternative<T>(state_); }

  const Status& status() const {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(state_);
  }

  const T& value() const& {
    DODUO_CHECK(ok()) << status().ToString();
    return std::get<T>(state_);
  }
  T& value() & {
    DODUO_CHECK(ok()) << status().ToString();
    return std::get<T>(state_);
  }
  T&& value() && {
    DODUO_CHECK(ok()) << status().ToString();
    return std::get<T>(std::move(state_));
  }

 private:
  std::variant<T, Status> state_;
};

}  // namespace doduo::util

#endif  // DODUO_UTIL_STATUS_H_
