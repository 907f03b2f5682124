#include "util/logging.h"

#include <cstdio>

namespace sensord {
namespace {

// Process-wide and unsynchronized: sensord runs on one thread (DESIGN.md
// §12). A null test sink means stderr.
LogLevel g_level = LogLevel::kInfo;
std::string* g_test_sink = nullptr;

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO ";
    case LogLevel::kWarning:
      return "WARN ";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?????";
}

const char* Basename(const char* path) {
  const char* base = path;
  for (const char* p = path; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  return base;
}

}  // namespace

void SetLogLevel(LogLevel level) { g_level = level; }
LogLevel GetLogLevel() { return g_level; }

void SetLogSinkForTest(std::string* sink) { g_test_sink = sink; }

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : enabled_(level >= g_level) {
  if (enabled_) {
    stream_ << "[" << LevelTag(level) << " " << Basename(file) << ":" << line
            << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) {
    if (g_test_sink != nullptr) {
      g_test_sink->append(stream_.str());
      g_test_sink->push_back('\n');
    } else {
      std::fprintf(stderr, "%s\n", stream_.str().c_str());
    }
  }
}

}  // namespace internal
}  // namespace sensord
