#include "obs/trace.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "obs/flight_recorder.h"
#include "util/thread_annotations.h"

namespace sensord::obs {
namespace {

std::atomic<bool> g_timing_enabled{false};

// Hot-path flags are atomics; everything that must change together (the
// sink file and the injected virtual clock) lives behind one mutex so
// records never interleave and a span can never read a clock whose owner
// was destroyed mid-write.
std::atomic<bool> g_sink_enabled{false};
std::atomic<int> g_clock_mode{static_cast<int>(TraceClockMode::kVirtual)};

struct SinkState {
  std::mutex mu;
  FILE* file GUARDED_BY(mu) = nullptr;
  TraceVirtualClockFn clock_fn GUARDED_BY(mu) = nullptr;
  void* clock_ctx GUARDED_BY(mu) = nullptr;
};

SinkState& State() {
  // Leaked: spans in static destructors must still find live state.
  static SinkState* state = new SinkState();
  return *state;
}

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

bool TimingEnabled() {
  return g_timing_enabled.load(std::memory_order_relaxed);
}

void SetTimingEnabled(bool enabled) {
  g_timing_enabled.store(enabled, std::memory_order_relaxed);
}

void SetTraceClockMode(TraceClockMode mode) {
  g_clock_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

TraceClockMode GetTraceClockMode() {
  return static_cast<TraceClockMode>(
      g_clock_mode.load(std::memory_order_relaxed));
}

void SetTraceVirtualClock(TraceVirtualClockFn fn, void* ctx) {
  SinkState& state = State();
  const std::lock_guard<std::mutex> lock(state.mu);
  state.clock_fn = fn;
  state.clock_ctx = fn == nullptr ? nullptr : ctx;
}

void ClearTraceVirtualClock(void* ctx) {
  SinkState& state = State();
  const std::lock_guard<std::mutex> lock(state.mu);
  if (state.clock_ctx == ctx) {
    state.clock_fn = nullptr;
    state.clock_ctx = nullptr;
  }
}

Status OpenTraceSink(const std::string& path) {
  SinkState& state = State();
  const std::lock_guard<std::mutex> lock(state.mu);
  if (state.file != nullptr) {
    std::fclose(state.file);
    state.file = nullptr;
    g_sink_enabled.store(false, std::memory_order_release);
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open trace sink: " + path);
  }
  state.file = f;
  g_sink_enabled.store(true, std::memory_order_release);
  return Status::Ok();
}

void CloseTraceSink() {
  SinkState& state = State();
  const std::lock_guard<std::mutex> lock(state.mu);
  g_sink_enabled.store(false, std::memory_order_release);
  if (state.file != nullptr) {
    std::fclose(state.file);
    state.file = nullptr;
  }
}

bool TraceSinkEnabled() {
  return g_sink_enabled.load(std::memory_order_relaxed);
}

namespace {

// Appends one fully formatted JSONL line to the sink, dropping it if the
// sink closed between the enabled check and the write (the TraceSpan
// straddle contract) or if the formatter overflowed its buffer.
void AppendSinkLine(const char* line, int len, int cap) {
  if (len <= 0 || len >= cap) return;
  SinkState& state = State();
  const std::lock_guard<std::mutex> lock(state.mu);
  if (state.file == nullptr) return;
  std::fwrite(line, 1, static_cast<size_t>(len), state.file);
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
  SinkState& state = State();
  const std::lock_guard<std::mutex> lock(state.mu);
  if (state.clock_fn != nullptr) {
    return VirtualTimeToNs(state.clock_fn(state.clock_ctx));
  }
  return VirtualTimeToNs(fallback_virtual_time);
}

void WriteTraceEvent(const char* name, int64_t node, double virtual_time,
                     uint64_t begin_ns, uint64_t end_ns) {
  char line[256];
  const int len = std::snprintf(
      line, sizeof(line),
      "{\"name\":\"%s\",\"node\":%lld,\"vt\":%.9g,\"begin_ns\":%llu,"
      "\"end_ns\":%llu}\n",
      name, static_cast<long long>(node), virtual_time,
      static_cast<unsigned long long>(begin_ns),
      static_cast<unsigned long long>(end_ns));
  // A span name long enough to overflow the buffer would truncate to invalid
  // JSON; drop the record instead (names are short literals by contract).
  if (len <= 0 || len >= static_cast<int>(sizeof(line))) return;
  SinkState& state = State();
  const std::lock_guard<std::mutex> lock(state.mu);
  if (state.file == nullptr) return;  // sink closed between check and write
  std::fwrite(line, 1, static_cast<size_t>(len), state.file);
}

}  // namespace internal
}  // namespace sensord::obs
