#include "obs/trace.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/flight_recorder.h"

namespace sensord::obs {
namespace {

// Process-wide switches and sink state; single-threaded (DESIGN.md §12).
// All trivially destructible, so spans in static destructors still find
// them. The sink is open exactly while g_sink_file is non-null.
bool g_timing_enabled = false;
TraceClockMode g_clock_mode = TraceClockMode::kVirtual;
FILE* g_sink_file = nullptr;
TraceVirtualClockFn g_clock_fn = nullptr;
void* g_clock_ctx = nullptr;

// Virtual seconds → integer nanoseconds, the JSONL stamp unit. Clamped at
// zero: spans before the simulation starts stamp 0, never wrap.
uint64_t VirtualTimeToNs(double vt) {
  if (!(vt > 0.0)) return 0;
  return static_cast<uint64_t>(std::llround(vt * 1e9));
}

}  // namespace

uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool TimingEnabled() { return g_timing_enabled; }

void SetTimingEnabled(bool enabled) { g_timing_enabled = enabled; }

void SetTraceClockMode(TraceClockMode mode) { g_clock_mode = mode; }

TraceClockMode GetTraceClockMode() { return g_clock_mode; }

void SetTraceVirtualClock(TraceVirtualClockFn fn, void* ctx) {
  g_clock_fn = fn;
  g_clock_ctx = fn == nullptr ? nullptr : ctx;
}

void ClearTraceVirtualClock(void* ctx) {
  if (g_clock_ctx == ctx) {
    g_clock_fn = nullptr;
    g_clock_ctx = nullptr;
  }
}

Status OpenTraceSink(const std::string& path) {
  CloseTraceSink();
  g_sink_file = std::fopen(path.c_str(), "w");
  if (g_sink_file == nullptr) {
    return Status::IoError("cannot open trace sink: " + path);
  }
  return Status::Ok();
}

void CloseTraceSink() {
  if (g_sink_file != nullptr) {
    std::fclose(g_sink_file);
    g_sink_file = nullptr;
  }
}

bool TraceSinkEnabled() { return g_sink_file != nullptr; }

namespace {

// Appends one fully formatted JSONL line to the open sink. A line that
// overflowed the formatter's buffer would be truncated, invalid JSON; it is
// dropped instead (span names are short literals by contract). Callers
// check TraceSinkEnabled().
void AppendSinkLine(const char* line, int len, int cap) {
  if (len <= 0 || len >= cap) return;
  std::fwrite(line, 1, static_cast<size_t>(len), g_sink_file);
}

}  // namespace

void EmitCausalSpan(const char* name, int64_t node, double virtual_time,
                    uint64_t trace_id, uint64_t span_id,
                    uint64_t parent_span) {
  if (!TraceSinkEnabled()) return;
  char line[320];
  const int len = std::snprintf(
      line, sizeof(line),
      "{\"name\":\"%s\",\"node\":%lld,\"vt\":%.9g,\"trace\":%llu,"
      "\"span\":%llu,\"parent\":%llu}\n",
      name, static_cast<long long>(node), virtual_time,
      static_cast<unsigned long long>(trace_id),
      static_cast<unsigned long long>(span_id),
      static_cast<unsigned long long>(parent_span));
  AppendSinkLine(line, len, static_cast<int>(sizeof(line)));
}

void EmitDecisionRecord(const DecisionRecord& record) {
  if (!TraceSinkEnabled()) return;
  char line[448];
  const int len = std::snprintf(
      line, sizeof(line),
      "{\"decision\":\"%s\",\"node\":%lld,\"level\":%d,\"vt\":%.9g,"
      "\"trace\":%llu,\"span\":%llu,\"estimate\":%.9g,\"threshold\":%.9g,"
      "\"model_version\":%llu,\"staleness_s\":%.9g,\"degraded\":%d,"
      "\"latency_s\":%.9g}\n",
      record.detector, static_cast<long long>(record.node), record.level,
      record.virtual_time, static_cast<unsigned long long>(record.trace_id),
      static_cast<unsigned long long>(record.span_id), record.estimate,
      record.threshold, static_cast<unsigned long long>(record.model_version),
      record.staleness_s, record.degraded ? 1 : 0, record.latency_s);
  AppendSinkLine(line, len, static_cast<int>(sizeof(line)));
}

bool InitTracingFromEnv() {
  bool any = false;
  if (const char* path = std::getenv("SENSORD_TRACE_JSONL");
      path != nullptr && *path != '\0') {
    if (OpenTraceSink(path).ok()) any = true;
  }
  if (const char* path = std::getenv("SENSORD_FLIGHT_JSONL");
      path != nullptr && *path != '\0') {
    if (FlightRecorder::OpenDumpSink(path).ok()) {
      FlightRecorder::Enable();
      any = true;
    }
  }
  return any;
}

void ShutdownTracingFromEnv() {
  if (FlightRecorder::Enabled()) {
    FlightRecorder::DumpAll("shutdown");
    FlightRecorder::Disable();
  }
  FlightRecorder::CloseDumpSink();
  CloseTraceSink();
}

namespace internal {

uint64_t SpanNowNs(double fallback_virtual_time) {
  if (GetTraceClockMode() == TraceClockMode::kWall) {
    return MonotonicNowNs();
  }
  if (g_clock_fn != nullptr) {
    return VirtualTimeToNs(g_clock_fn(g_clock_ctx));
  }
  return VirtualTimeToNs(fallback_virtual_time);
}

void WriteTraceEvent(const char* name, int64_t node, double virtual_time,
                     uint64_t begin_ns, uint64_t end_ns) {
  if (!TraceSinkEnabled()) return;  // the sink closed during the span
  char line[256];
  const int len = std::snprintf(
      line, sizeof(line),
      "{\"name\":\"%s\",\"node\":%lld,\"vt\":%.9g,\"begin_ns\":%llu,"
      "\"end_ns\":%llu}\n",
      name, static_cast<long long>(node), virtual_time,
      static_cast<unsigned long long>(begin_ns),
      static_cast<unsigned long long>(end_ns));
  AppendSinkLine(line, len, static_cast<int>(sizeof(line)));
}

}  // namespace internal
}  // namespace sensord::obs
