// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// Scoped latency capture and span tracing.
//
// Two independent switches, both off by default so the library's hot paths
// pay only one flag load per instrumentation point:
//
//  * Latency timing (SetTimingEnabled): ScopedTimer reads the monotonic
//    clock around its scope and records the duration, in nanoseconds, into
//    an obs::Histogram. Disabled, a ScopedTimer is one flag load — no
//    clock reads, no allocation.
//  * Span tracing (OpenTraceSink): TraceSpan appends one JSONL record per
//    scope — name, node id, event-queue virtual time, begin/end timestamps
//    in nanoseconds — to the sink file. Disabled, a TraceSpan is one flag
//    load — no clock reads, no allocation (the micro-benchmark
//    BM_ObsDisabledTraceSpan holds this to zero allocations per event).
//
// Both switches and the sink are process-wide and unsynchronized: sensord
// runs on one thread (DESIGN.md §12).
//
// Span timestamps are VIRTUAL by default: begin_ns/end_ns derive from the
// simulator's event-queue clock (SetTraceVirtualClock; the Simulator
// installs itself on construction), falling back to the virtual time the
// span was constructed with. Two same-seed runs therefore emit
// byte-identical traces — the determinism property the soak and golden
// suites rely on, and which tools/lint/sensord_lint.py enforces repo-wide.
// Host wall-clock stamps (the steady clock) are an explicit opt-in via
// SetTraceClockMode(TraceClockMode::kWall) for offline profiling of real
// elapsed time; such traces are not reproducible and must never feed golden
// files.

#ifndef SENSORD_OBS_TRACE_H_
#define SENSORD_OBS_TRACE_H_

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "util/status.h"

namespace sensord::obs {

/// Monotonic host clock reading in nanoseconds (the one wall-clock source
/// in sensord; see tools/lint/determinism_allowlist.txt). Used by
/// ScopedTimer latency capture and by TraceClockMode::kWall spans only.
uint64_t MonotonicNowNs();

/// True when ScopedTimer should capture latencies. Default: false.
bool TimingEnabled();

/// Globally enables/disables ScopedTimer latency capture.
void SetTimingEnabled(bool enabled);

/// RAII latency capture: records the scope's duration in nanoseconds into
/// `hist` when timing is enabled (and `hist` non-null); otherwise a no-op.
/// Latencies are real host time by design — they measure the hardware, not
/// the simulation — and are aggregated into histograms, never into
/// deterministic outputs.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist)
      : hist_(TimingEnabled() ? hist : nullptr),
        begin_ns_(hist_ != nullptr ? MonotonicNowNs() : 0) {}

  ~ScopedTimer() {
    if (hist_ != nullptr) {
      hist_->Record(static_cast<double>(MonotonicNowNs() - begin_ns_));
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* hist_;
  uint64_t begin_ns_;
};

/// What TraceSpan stamps begin_ns/end_ns from.
enum class TraceClockMode {
  /// Event-queue virtual time, scaled to integer nanoseconds. Deterministic:
  /// same seed, same trace bytes. The default.
  kVirtual,
  /// Host steady clock. Opt-in for offline profiling; not reproducible.
  kWall,
};

/// Sets the span timestamp source. Default: TraceClockMode::kVirtual.
void SetTraceClockMode(TraceClockMode mode);
TraceClockMode GetTraceClockMode();

/// A callback yielding the current event-queue virtual time in seconds.
using TraceVirtualClockFn = double (*)(void* ctx);

/// Installs the process-wide virtual clock consulted by kVirtual spans at
/// begin and end (so a span that straddles event-queue progress shows its
/// virtual extent). The Simulator installs itself on construction; the most
/// recently constructed simulator wins, which matches "one simulation per
/// process" usage. Pass fn=nullptr to uninstall unconditionally.
void SetTraceVirtualClock(TraceVirtualClockFn fn, void* ctx);

/// Uninstalls the virtual clock only if `ctx` matches the installed one —
/// a destroyed simulator must not yank a newer simulator's clock.
void ClearTraceVirtualClock(void* ctx);

/// Opens (or truncates) `path` as the process-wide JSONL trace sink and
/// enables span tracing. Returns IoError if the file cannot be opened.
Status OpenTraceSink(const std::string& path);

/// Flushes and closes the sink; span tracing is disabled again.
void CloseTraceSink();

/// True while a sink is open.
bool TraceSinkEnabled();

/// Appends one *causal* span record to the sink — a span carrying the
/// trace/span/parent ids of DESIGN.md §11 in addition to the usual
/// name/node/vt fields, so tools/trace/trace_report.py can join spans into
/// per-decision chains. Instantaneous (begin == end == the current span
/// clock). One flag load and nothing else when no sink is open.
/// `name` must be a short identifier without '"' or '\'.
void EmitCausalSpan(const char* name, int64_t node, double virtual_time,
                    uint64_t trace_id, uint64_t span_id, uint64_t parent_span);

/// The provenance of one detection decision, mirrored from OutlierEvent
/// (core/outlier_observer.h) into the trace sink so reports can explain
/// every decision without the binary's observer hooks. The detectors derive
/// it from the event in one place, ReportDecision (core/protocol.h).
struct DecisionRecord {
  const char* detector = "";  ///< "d3" | "mgdd" (short literal)
  int64_t node = -1;
  int level = 1;
  double virtual_time = 0.0;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;    ///< the deciding span (chain walk starts here)
  double estimate = 0.0;   ///< N(p,r) or MDEF value at decision time
  double threshold = 0.0;  ///< the configured bound it was compared against
  uint64_t model_version = 0;  ///< observations behind the deciding model
  double staleness_s = 0.0;    ///< age of the stalest supporting input
  bool degraded = false;
  double latency_s = 0.0;  ///< ingest → this decision, virtual seconds
};

/// Appends one decision record to the sink. Same cost contract as
/// EmitCausalSpan when the sink is closed.
void EmitDecisionRecord(const DecisionRecord& record);

/// Opens trace sinks named by the environment:
///   SENSORD_TRACE_JSONL=<path>   — the causal span sink (OpenTraceSink)
///   SENSORD_FLIGHT_JSONL=<path>  — enables the flight recorder and opens
///                                  its dump sink (obs/flight_recorder.h)
/// Returns true if either sink was opened. Bench harnesses and examples
/// call this once at startup; ShutdownTracingFromEnv() flushes and closes
/// both (dumping every flight ring first, reason "shutdown").
bool InitTracingFromEnv();
void ShutdownTracingFromEnv();

namespace internal {
/// Current span timestamp in nanoseconds under the active clock mode:
/// kWall → MonotonicNowNs(); kVirtual → the installed virtual clock, or
/// `fallback_virtual_time` (seconds) when none is installed.
uint64_t SpanNowNs(double fallback_virtual_time);

/// Appends one span record to the sink (drops it if the sink closed in the
/// meantime). `name` must be a short identifier without '"' or '\'.
void WriteTraceEvent(const char* name, int64_t node, double virtual_time,
                     uint64_t begin_ns, uint64_t end_ns);
}  // namespace internal

/// Sentinel node id for spans outside any simulated node.
inline constexpr int64_t kTraceNoNode = -1;

/// RAII span: emits one JSONL record covering its lifetime when the sink is
/// open at construction. `name` must outlive the span (string literals).
class TraceSpan {
 public:
  TraceSpan(const char* name, int64_t node_id, double virtual_time)
      : name_(name),
        node_(node_id),
        virtual_time_(virtual_time),
        active_(TraceSinkEnabled()),
        begin_ns_(active_ ? internal::SpanNowNs(virtual_time) : 0) {}

  ~TraceSpan() {
    if (active_) {
      internal::WriteTraceEvent(name_, node_, virtual_time_, begin_ns_,
                                internal::SpanNowNs(virtual_time_));
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  int64_t node_;
  double virtual_time_;
  bool active_;
  uint64_t begin_ns_;
};

}  // namespace sensord::obs

#endif  // SENSORD_OBS_TRACE_H_
