// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// Network accounting: message and byte counts, total and per message kind.
//
// Figure 11 of the paper plots messages per second against network size for
// D3, MGDD and the centralized approach; this collector is where those
// numbers come from. Bytes are derived from the per-message payload size in
// numbers under the configurable bytes-per-number convention (paper: 2).
//
// Every RecordSend is also mirrored into the global obs::MetricsRegistry as
// `net.messages.total`, `net.numbers.total`, and a per-kind counter
// `net.messages.<kind>`. The registry counters are process-cumulative: they
// keep counting across Reset() and across multiple simulators, which makes
// them suitable for run-level telemetry but not for per-experiment deltas —
// the per-instance accessors below remain the authoritative per-run numbers.

#ifndef SENSORD_NET_STATS_COLLECTOR_H_
#define SENSORD_NET_STATS_COLLECTOR_H_

#include <array>
#include <cstdint>
#include <map>

#include "net/message.h"

namespace sensord {

/// Mutable tally of network traffic. Owned by the Simulator; read by
/// experiments after (or during) a run, on the simulator's one thread
/// (DESIGN.md §12).
class StatsCollector {
 public:
  /// Records one transmitted message.
  void RecordSend(const Message& msg);

  /// Records one message lost in flight (loss model, fault schedule, or a
  /// crashed receiver). The single source of truth for drop accounting:
  /// Simulator::MessagesDropped() reads this tally, and the process-wide
  /// `net.messages.dropped` counter is mirrored from here — so the two can
  /// never disagree across Reset() or simulator re-registration.
  void RecordDrop();

  /// Messages recorded as dropped.
  uint64_t MessagesDropped() const { return dropped_; }

  /// Total messages transmitted.
  uint64_t TotalMessages() const { return total_messages_; }

  /// Messages of one kind.
  uint64_t MessagesOfKind(MessageKind kind) const;

  /// Total payload volume in numbers.
  uint64_t TotalNumbers() const { return total_numbers_; }

  /// Total payload volume in bytes at `bytes_per_number` per value.
  uint64_t TotalBytes(uint64_t bytes_per_number) const {
    return TotalNumbers() * bytes_per_number;
  }

  /// Average message rate over a span of simulated seconds. Returns 0 for a
  /// non-positive span rather than dividing by zero (a zero-length window
  /// has, by convention, no traffic rate).
  double MessagesPerSecond(double elapsed) const {
    if (!(elapsed > 0.0)) return 0.0;
    return static_cast<double>(TotalMessages()) / elapsed;
  }

  /// Forgets all recorded traffic (e.g. to exclude warm-up from a
  /// measurement run).
  void Reset();

 private:
  // Kinds below this bound (all the shipped protocol + transport kinds) tally
  // into a flat array; rare application-defined kinds fall back to the map.
  static constexpr MessageKind kSmallKinds = 128;

  uint64_t total_messages_ = 0;
  uint64_t total_numbers_ = 0;
  uint64_t dropped_ = 0;
  std::array<uint64_t, kSmallKinds> by_small_kind_ = {};
  std::map<MessageKind, uint64_t> by_large_kind_;
};

}  // namespace sensord

#endif  // SENSORD_NET_STATS_COLLECTOR_H_
