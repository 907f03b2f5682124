// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// Deterministic fault injection for the sensor network simulator.
//
// The paper's experiments model unreliable radios with a single global loss
// probability; real deployments fail in richer ways — flaky individual
// links, duplicated and reordered frames, nodes that crash and later
// recover, and partitions that sever whole regions for a while (Branch et
// al., "In-Network Outlier Detection in Wireless Sensor Networks", treats
// exactly this class of fault as the central engineering problem). A
// FaultSchedule describes all of these as data, is driven entirely by the
// simulator's virtual clock, and draws every probabilistic decision from
// one seeded Rng — so a given (topology, workload, schedule, seed) tuple
// replays the exact same delivery order, byte for byte.
//
// Crash semantics come in two kinds (DESIGN.md §10). An *omission* crash is
// the classic fault: a down node neither transmits nor receives (messages
// addressed to it are dropped in flight) and its sensor produces no
// readings, but it keeps its memory — a mote whose radio and MCU brown out
// without flash loss. An *amnesia* crash additionally erases the node's
// volatile state at restart: the Simulator resets the node, restores its
// last checkpoint if one exists (core/snapshot.h), bumps its transport
// incarnation and runs the rejoin protocol. Partitions sever every link
// with exactly one endpoint inside the partitioned group.
//
// Orthogonally to message faults, per-node *sensor data* faults corrupt the
// reading stream at its source: stuck-at (the transducer freezes), dropout
// (NaN/Inf garbage) and spike (additive excursions). These exercise the
// ingest validation firewall (data/validate.h) rather than the transport.

#ifndef SENSORD_NET_FAULT_SCHEDULE_H_
#define SENSORD_NET_FAULT_SCHEDULE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "net/event_queue.h"
#include "net/message.h"
#include "util/math_utils.h"
#include "util/rng.h"

namespace sensord {

/// Stochastic misbehaviour of one directed link. All probabilities are
/// per physical transmission (retransmissions re-roll).
struct LinkFault {
  /// Probability the frame is lost in flight.
  double drop_probability = 0.0;

  /// Probability the frame is delivered twice (radio-level duplicate; the
  /// reliable transport suppresses these, raw consumers see both copies).
  double duplicate_probability = 0.0;

  /// Extra per-copy delivery delay, uniform in [0, jitter_max] seconds.
  /// Jitter larger than the send spacing reorders deliveries.
  double jitter_max = 0.0;

  /// Probability a copy is additionally held back `reorder_delay` seconds —
  /// a heavier tail than uniform jitter, guaranteeing reordering.
  double reorder_probability = 0.0;
  double reorder_delay = 0.0;
};

/// How a node crashes (see the header comment for semantics).
enum class CrashKind {
  kOmission,  ///< down for the interval; memory intact on recovery
  kAmnesia,   ///< volatile state erased at restart; recovers via checkpoint
};

/// How a sensor's reading stream is corrupted at the source during an
/// active fault window. Faults apply before any network involvement, so
/// they reach the node's ingest firewall exactly as a broken transducer
/// would.
enum class SensorDataFaultKind {
  kStuckAt,  ///< every coordinate frozen at `value`
  kDropout,  ///< coordinates replaced by NaN / +Inf garbage
  kSpike,    ///< `value` added to every coordinate
};

/// One sensor data fault window on one node.
struct SensorFault {
  SensorDataFaultKind kind = SensorDataFaultKind::kStuckAt;
  SimTime from = 0.0;
  SimTime until = std::numeric_limits<SimTime>::infinity();
  /// Fraction of readings in the window that are corrupted; 1.0 corrupts
  /// every reading without consuming randomness.
  double probability = 1.0;
  /// kStuckAt: the frozen coordinate value. kSpike: the added magnitude.
  /// Ignored by kDropout.
  double value = 0.0;
};

/// What the schedule decided for one physical transmission.
struct TransmissionPlan {
  /// True: the frame (all copies) is lost.
  bool drop = false;

  /// Extra delay of each delivered copy, added to the hop latency.
  /// One entry per copy; {0.0} is a plain single delivery.
  std::vector<double> extra_delays;
};

/// A deterministic, virtual-time-driven schedule of injected faults.
/// Configure before (or during) a run; the Simulator consults it on every
/// transmission, delivery and sensor reading.
class FaultSchedule {
 public:
  static constexpr SimTime kForever = std::numeric_limits<SimTime>::infinity();

  explicit FaultSchedule(uint64_t seed = 0xFA017B0D) : rng_(seed) {}

  /// Fault model applied to every link without a per-link override. A
  /// default drop_probability is the simulator's uniform loss rate.
  void SetDefaultLinkFault(const LinkFault& fault) { default_fault_ = fault; }

  /// Fault model of the directed link from -> to. It replaces the default
  /// on that link; the two never compound.
  void SetLinkFault(NodeId from, NodeId to, const LinkFault& fault) {
    link_faults_[{from, to}] = fault;
  }

  /// Deterministically drops the next `count` physical transmissions on the
  /// directed link from -> to (before any probabilistic decision). The
  /// precise control the transport tests need.
  void DropNext(NodeId from, NodeId to, uint64_t count) {
    forced_drops_[{from, to}] += count;
  }

  /// Takes `node` down during the half-open interval [from, until): the
  /// node is already down for an event at exactly `from` and back up for an
  /// event at exactly `until`. Intervals may be open-ended (until =
  /// kForever) and multiple, possibly overlapping, intervals per node are
  /// allowed — the node is down whenever any interval covers the instant.
  /// kAmnesia additionally erases volatile state at restart (the crash
  /// listener, installed by the Simulator, schedules the restart).
  void CrashNode(NodeId node, SimTime from, SimTime until = kForever,
                 CrashKind kind = CrashKind::kOmission) {
    crashes_[node].push_back({from, until, kind});
    if (crash_listener_) crash_listener_(node, from, until, kind);
  }

  /// Observer invoked (synchronously) for every subsequent CrashNode call.
  /// The Simulator installs one to schedule amnesia restarts; set before
  /// configuring crashes.
  using CrashListener =
      std::function<void(NodeId, SimTime from, SimTime until, CrashKind)>;
  void SetCrashListener(CrashListener listener) {
    crash_listener_ = std::move(listener);
  }

  /// Corrupts `node`'s reading stream during [fault.from, fault.until).
  /// Multiple fault windows per node are allowed; at a given instant the
  /// earliest-added active window applies.
  void AddSensorFault(NodeId node, const SensorFault& fault) {
    sensor_faults_[node].push_back(fault);
  }

  /// True if any sensor fault window is configured for `node` (active or
  /// not) — lets the reading path skip the perturbation copy entirely for
  /// clean nodes.
  bool HasSensorFaults(NodeId node) const {
    return sensor_faults_.count(node) > 0;
  }

  /// Applies the active sensor fault window (if any) to `reading` in place.
  /// Returns true iff the reading was corrupted. Consumes randomness only
  /// when an active window has probability < 1.
  bool PerturbReading(NodeId node, SimTime t, Point* reading);

  /// Severs every link between `group` and the rest of the network during
  /// [from, until). Links inside the group (and outside it) stay up.
  void Partition(std::vector<NodeId> group, SimTime from,
                 SimTime until = kForever) {
    partitions_.push_back(
        PartitionSpec{from, until, {group.begin(), group.end()}});
  }

  /// True if `node` is not inside any crash interval at time `t`.
  bool IsNodeUp(NodeId node, SimTime t) const;

  /// True if neither endpoint is down and no active partition separates
  /// the endpoints at time `t`.
  bool IsLinkUp(NodeId from, NodeId to, SimTime t) const;

  /// Decides the fate of one physical transmission at time `t`. Advances
  /// the schedule's Rng only for the probabilistic knobs that are actually
  /// configured on the link, so an unconfigured schedule costs nothing and
  /// perturbs no randomness.
  TransmissionPlan DecideTransmission(NodeId from, NodeId to, SimTime t);

  /// Transmissions dropped by this schedule (forced, probabilistic, severed
  /// links), radio-level duplicates injected, and readings corrupted by
  /// sensor data faults, for assertions.
  uint64_t drops() const { return drops_; }
  uint64_t duplicates() const { return duplicates_; }
  uint64_t sensor_perturbations() const { return sensor_perturbations_; }

 private:
  struct Interval {
    SimTime from;
    SimTime until;
    CrashKind kind;
    bool Contains(SimTime t) const { return t >= from && t < until; }
  };
  struct PartitionSpec {
    SimTime from;
    SimTime until;
    std::set<NodeId> group;
  };

  const LinkFault& FaultFor(NodeId from, NodeId to) const;

  LinkFault default_fault_;
  std::map<std::pair<NodeId, NodeId>, LinkFault> link_faults_;
  std::map<std::pair<NodeId, NodeId>, uint64_t> forced_drops_;
  std::map<NodeId, std::vector<Interval>> crashes_;
  std::map<NodeId, std::vector<SensorFault>> sensor_faults_;
  std::vector<PartitionSpec> partitions_;
  CrashListener crash_listener_;
  Rng rng_;
  uint64_t drops_ = 0;
  uint64_t duplicates_ = 0;
  uint64_t sensor_perturbations_ = 0;
};

}  // namespace sensord

#endif  // SENSORD_NET_FAULT_SCHEDULE_H_
