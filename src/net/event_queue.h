// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// The discrete-event core of the sensor network simulator.
//
// The paper evaluates on a simulator built on TAG's infrastructure; sensord
// ships its own equivalent (see DESIGN.md, Substitutions). Everything that
// happens in the simulated network — message deliveries, periodic sensor
// readings, timer-driven model pushes — is an event on this queue. Events at
// equal timestamps fire in scheduling order (FIFO tie-break), which keeps
// runs exactly reproducible.
//
// Layout: the heap orders small POD keys {time, seq, slot}; the callbacks
// live in a stable side pool indexed by slot, so heap sifts move 24-byte
// entries instead of std::function objects.

#ifndef SENSORD_NET_EVENT_QUEUE_H_
#define SENSORD_NET_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace sensord {

/// Simulated time, in seconds.
using SimTime = double;

/// A time-ordered queue of callbacks.
class EventQueue {
 public:
  /// Schedules `fn` to run at absolute time `t`. Pre: t >= Now().
  void ScheduleAt(SimTime t, std::function<void()> fn);

  /// Schedules `fn` to run `delay` seconds from now. Pre: delay >= 0.
  void ScheduleAfter(SimTime delay, std::function<void()> fn);

  /// Current simulated time: the timestamp of the most recently fired event.
  SimTime Now() const { return now_; }

  /// True if no events remain.
  bool Empty() const { return heap_.empty(); }

  /// Number of pending events.
  size_t Size() const { return heap_.size(); }

  /// Fires the earliest pending event. Pre: !Empty().
  void RunOne();

  /// Fires events until the queue drains or simulated time would exceed
  /// `until`. Events scheduled exactly at `until` still run. Returns the
  /// number of events fired.
  uint64_t RunUntil(SimTime until);

  /// Fires events until the queue drains. Returns the number fired.
  uint64_t RunAll();

 private:
  struct HeapItem {
    SimTime time;
    uint64_t seq;   // FIFO tie-break for equal timestamps
    uint32_t slot;  // index into slots_
  };

  // Min-heap order: earlier time first, then lower seq.
  static bool Later(const HeapItem& a, const HeapItem& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  void SiftUp(size_t i);
  void SiftDown(size_t i);

  std::vector<HeapItem> heap_;
  std::vector<std::function<void()>> slots_;
  std::vector<uint32_t> free_slots_;
  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
};

}  // namespace sensord

#endif  // SENSORD_NET_EVENT_QUEUE_H_
