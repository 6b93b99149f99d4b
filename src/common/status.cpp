#include "common/status.h"

namespace asterix {

namespace {
const char* CodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "InvalidArgument";
    case StatusCode::kNotFound: return "NotFound";
    case StatusCode::kAlreadyExists: return "AlreadyExists";
    case StatusCode::kIOError: return "IOError";
    case StatusCode::kCorruption: return "Corruption";
    case StatusCode::kNotSupported: return "NotSupported";
    case StatusCode::kResourceExhausted: return "ResourceExhausted";
    case StatusCode::kTypeMismatch: return "TypeMismatch";
    case StatusCode::kParseError: return "ParseError";
    case StatusCode::kTxnConflict: return "TxnConflict";
    case StatusCode::kInternal: return "Internal";
    case StatusCode::kCancelled: return "Cancelled";
    case StatusCode::kDeadlineExceeded: return "DeadlineExceeded";
  }
  return "Unknown";
}
}  // namespace

const std::string& Status::message() const {
  static const std::string kEmpty;
  return state_ ? state_->message : kEmpty;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = CodeName(state_->code);
  out += ": ";
  out += state_->message;
  return out;
}

}  // namespace asterix
