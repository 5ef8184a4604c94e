// Lightweight runtime-checked assertions used across the library.
//
// MOCA_CHECK is always on (simulator correctness depends on it); failures
// throw moca::CheckError so tests can assert on misuse and callers can
// recover cleanly instead of aborting the host process.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace moca {

/// Thrown when a MOCA_CHECK condition fails.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what) : std::logic_error(what) {}
};

/// A failure that is worth retrying: transient by construction (an injected
/// flaky-IO fault, a resource that may free up on the next attempt). The
/// sweep supervisor retries jobs failing with this type and quarantines
/// them once the retry budget is exhausted; every other exception is
/// treated as permanent.
class RetryableError : public CheckError {
 public:
  explicit RetryableError(const std::string& what) : CheckError(what) {}
};

/// Thrown from the simulation loop when a cooperative cancellation flag is
/// set (per-job wall-clock timeout in supervised sweeps). Never retried.
class CancelledError : public CheckError {
 public:
  explicit CancelledError(const std::string& what) : CheckError(what) {}
};

namespace detail {

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line) {
  std::ostringstream os;
  os << "CHECK failed: " << expr << " at " << file << ":" << line;
  throw CheckError(os.str());
}

}  // namespace detail
}  // namespace moca

/// Checks an internal invariant; on failure throws moca::CheckError naming
/// the expression and its source location.
#define MOCA_CHECK(cond)                                         \
  do {                                                           \
    if (!(cond)) {                                               \
      ::moca::detail::check_failed(#cond, __FILE__, __LINE__);   \
    }                                                            \
  } while (0)

/// Checks `cond`; on failure throws moca::CheckError carrying the streamed
/// message alone, e.g. MOCA_CHECK_MSG(x > 0, "x must be positive, got " << x).
/// The text names no source path or line, so a rejected input or a failed
/// simulation reports the same bytes from any checkout, and an edit that
/// moves the check does not change them.
#define MOCA_CHECK_MSG(cond, stream_expr)                \
  do {                                                   \
    if (!(cond)) {                                       \
      std::ostringstream moca_check_os_;                 \
      moca_check_os_ << stream_expr;                     \
      throw ::moca::CheckError(moca_check_os_.str());    \
    }                                                    \
  } while (0)
