// Status: error-handling primitive used across asterix-lite public APIs.
// Follows the RocksDB/Arrow convention: functions that can fail return a
// Status (or Result<T>, see result.h) instead of throwing exceptions.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

namespace asterix {

/// Error categories used across the system. Kept deliberately coarse;
/// the message carries the detail.
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kIOError,
  kCorruption,
  kNotSupported,
  kResourceExhausted,
  kTypeMismatch,
  kParseError,
  kTxnConflict,
  kInternal,
  kCancelled,
  kDeadlineExceeded,
};

/// A Status encapsulates the result of an operation: success, or an error
/// code plus a human-readable message. It is one pointer wide: the OK status
/// is a null pointer and carries no allocation; an error owns a heap-held
/// code and message, which copying duplicates.
///
/// [[nodiscard]] on the class makes every function returning Status warn at
/// call sites that drop the return value (enforced as an error in CI via
/// -Werror and checked again by tools/axlint's must-check pass). Truly
/// fire-and-forget sites must say why and cast: `(void)DoThing();`.
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(const Status& o)
      : state_(o.state_ ? std::make_unique<State>(*o.state_) : nullptr) {}
  Status(Status&&) noexcept = default;
  Status& operator=(const Status& o) { return *this = Status(o); }
  Status& operator=(Status&&) noexcept = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status TypeMismatch(std::string msg) {
    return Status(StatusCode::kTypeMismatch, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status TxnConflict(std::string msg) {
    return Status(StatusCode::kTxnConflict, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return state_ == nullptr; }
  StatusCode code() const { return state_ ? state_->code : StatusCode::kOk; }
  /// Empty for OK.
  const std::string& message() const;

  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code() == StatusCode::kAlreadyExists; }
  bool IsResourceExhausted() const {
    return code() == StatusCode::kResourceExhausted;
  }
  bool IsTxnConflict() const { return code() == StatusCode::kTxnConflict; }
  bool IsCancelled() const { return code() == StatusCode::kCancelled; }
  bool IsDeadlineExceeded() const {
    return code() == StatusCode::kDeadlineExceeded;
  }

  /// Render as "CODE: message" for logs and test failures.
  std::string ToString() const;

 private:
  struct State {
    StatusCode code;
    std::string message;
  };
  Status(StatusCode code, std::string msg)
      : state_(std::make_unique<State>(State{code, std::move(msg)})) {}

  std::unique_ptr<State> state_;  // null means OK
};

/// Propagate a non-OK Status to the caller.
#define AX_RETURN_NOT_OK(expr)                \
  do {                                        \
    ::asterix::Status _st = (expr);           \
    if (!_st.ok()) return _st;                \
  } while (0)

}  // namespace asterix
