// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// Per-node flight recorder (DESIGN.md §11): a fixed-capacity ring buffer of
// each node's most recent activity — readings, sends, deliveries, drops,
// acks, checkpoints, restarts, quarantine transitions — dumped as
// deterministic JSONL when something goes wrong (crash, rejoin, quarantine)
// so the black box of the failing node survives the failure.
//
// Cost contract (the BM_ObsDisabledFlightRecorder micro-benchmark holds
// this): disabled — the default — Record() is exactly one flag load, no
// allocation. Enabled, a record is a ring lookup and one POD slot write; the
// ring allocates once per node at its first record and never again.
//
// Determinism: events are stamped with event-queue virtual time and dumps
// are ordered oldest-first by ring position, so two same-seed runs dump
// byte-identical JSONL (the determinism suite asserts this; the wall clock
// is never read — tools/lint/sensord_lint.py enforces it).

#ifndef SENSORD_OBS_FLIGHT_RECORDER_H_
#define SENSORD_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace sensord::obs {

/// What happened. Kinds are stable wire names (FlightEventKindName) in the
/// dump JSONL; append new kinds at the end.
enum class FlightEventKind : uint8_t {
  kReading = 0,     ///< sensor reading ingested (value = first coordinate)
  kSend,            ///< transmission attempt (a = peer, b = message kind)
  kDeliver,         ///< data message delivered (a = peer, b = message kind)
  kDrop,            ///< transmission lost (a = peer, b = message kind)
  kAck,             ///< transport ack received (a = peer, b = acked seq)
  kCheckpoint,      ///< volatile state checkpointed (value = bytes)
  kRestart,         ///< amnesia restart completed (a = restored, b = epoch)
  kQuarantine,      ///< stuck-sensor quarantine began (value = reading)
  kRejoin,          ///< rejoin announce sent (a = recovered flag)
};

/// Short stable identifier of `kind` ("reading", "send", ...).
const char* FlightEventKindName(FlightEventKind kind);

/// One ring slot. POD: recording never allocates.
struct FlightEvent {
  double vt = 0.0;
  FlightEventKind kind = FlightEventKind::kReading;
  int64_t a = 0;
  int64_t b = 0;
  double value = 0.0;
};

namespace internal {
/// The process-wide enable gate; exposed so the inline Record() fast path
/// compiles to a single load. Not part of the public API.
extern bool g_flight_enabled;
}  // namespace internal

/// Process-wide recorder: per-node rings and one dump sink, unsynchronized
/// like the rest of sensord (single-threaded; DESIGN.md §12).
class FlightRecorder {
 public:
  /// True while recording is enabled. One flag load.
  static bool Enabled() { return internal::g_flight_enabled; }

  /// Enables recording with `capacity_per_node` ring slots per node.
  /// Existing rings are cleared and re-sized. Pre: capacity >= 1.
  static void Enable(size_t capacity_per_node = 64);

  /// Disables recording and discards every ring.
  static void Disable();

  /// Opens (or truncates) `path` as the JSONL dump sink. Dumps with no sink
  /// open are dropped. Returns IoError if the file cannot be opened.
  static Status OpenDumpSink(const std::string& path);

  /// Flushes and closes the dump sink.
  static void CloseDumpSink();

  /// Records one event into `node`'s ring. Disabled: one flag load.
  static void Record(int64_t node, FlightEventKind kind, double vt,
                     int64_t a = 0, int64_t b = 0, double value = 0.0) {
    if (!Enabled()) return;
    RecordSlow(node, kind, vt, a, b, value);
  }

  /// Dumps `node`'s ring to the sink as JSONL — one header line
  /// ({"flight":reason,...}) followed by one line per buffered event,
  /// oldest first — then clears the ring (each dump covers the window since
  /// the previous one). No-op when disabled or the node has no events.
  static void Dump(int64_t node, const char* reason, double vt);

  /// Dumps every node's ring (ascending node id), e.g. at shutdown.
  static void DumpAll(const char* reason);

  /// Buffered (not yet dumped) events of `node`; test hook.
  static size_t BufferedEventsForTest(int64_t node);

 private:
  static void RecordSlow(int64_t node, FlightEventKind kind, double vt,
                         int64_t a, int64_t b, double value);
};

}  // namespace sensord::obs

#endif  // SENSORD_OBS_FLIGHT_RECORDER_H_
