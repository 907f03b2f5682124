// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// Minimal leveled logging. The benches and examples use this to narrate
// experiment progress; the library core stays silent below kWarning.

#ifndef SENSORD_UTIL_LOGGING_H_
#define SENSORD_UTIL_LOGGING_H_

#include <sstream>
#include <string>

namespace sensord {

/// Severity of a log line. kDebug lines are compiled in but filtered at
/// runtime by the global threshold.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Sets the global minimum level that reaches stderr. Default: kInfo.
void SetLogLevel(LogLevel level);

/// Current global minimum level.
LogLevel GetLogLevel();

/// Redirects finished log lines into `*sink` (appended, one '\n'-terminated
/// line per message) instead of stderr. Pass nullptr to restore stderr.
/// The sink object itself must outlive the redirection. Like the level, the
/// sink is process-wide and unsynchronized (DESIGN.md §12).
void SetLogSinkForTest(std::string* sink);

namespace internal {

/// Stream-style log line; flushes to stderr on destruction.
///
/// Tag() and Node() extend the standard "[LEVEL file:line]" prefix with a
/// component name and a simulated-node id, so interleaved per-node output
/// stays attributable: SENSORD_LOG(Info).Tag("d3").Node(id()) << ...
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  /// Appends "[component] " to the line's prefix.
  LogMessage& Tag(const char* component) {
    if (enabled_) stream_ << "[" << component << "] ";
    return *this;
  }

  /// Appends "[node N] " to the line's prefix.
  LogMessage& Node(long long id) {
    if (enabled_) stream_ << "[node " << id << "] ";
    return *this;
  }

  template <typename T>
  LogMessage& operator<<(const T& value) {
    if (enabled_) stream_ << value;
    return *this;
  }

 private:
  bool enabled_;
  std::ostringstream stream_;
};

}  // namespace internal

#define SENSORD_LOG(level)                                            \
  ::sensord::internal::LogMessage(::sensord::LogLevel::k##level,      \
                                  __FILE__, __LINE__)

}  // namespace sensord

#endif  // SENSORD_UTIL_LOGGING_H_
