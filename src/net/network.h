// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// The sensor network simulator.
//
// Owns the nodes, the event queue and the traffic statistics; wires a
// HierarchyLayout into parent/child links; delivers messages with a
// configurable per-hop latency; and drives periodic sensor readings ("each
// sensor generates one reading every second" in the paper's Figure 11
// setup). Deterministic given the node implementations' seeds.
//
// The radio pipeline of one application-level Send is:
//
//   Send -> [ReliableTransport: stamp seq, arm retransmit timer]   (optional)
//        -> Transmit: stats + tx energy, FaultSchedule (forced drops,
//                     crashes, partitions, per-link or default
//                     drop/duplicate/jitter)
//        -> Deliver (per surviving copy, after hop latency + jitter):
//                     crashed-receiver check, rx energy,
//                     [transport: ack + dedup], Node::HandleMessage.
//
// Faults, loss included, are configured on faults(); reliable delivery on
// SimulatorOptions::transport. Both are driven by the virtual-time event
// queue and seeded Rngs, so every run replays byte-identically.

#ifndef SENSORD_NET_NETWORK_H_
#define SENSORD_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "net/event_queue.h"
#include "net/fault_schedule.h"
#include "net/hierarchy.h"
#include "net/message.h"
#include "net/node.h"
#include "net/stats_collector.h"
#include "net/transport.h"
#include "util/status.h"

namespace sensord {

/// Crash-recovery knobs (DESIGN.md §10).
struct RecoveryConfig {
  /// Virtual-time period, in seconds, between checkpoints of every node's
  /// volatile state (Node::SaveState) into the simulator's per-node flash.
  /// An amnesia restart restores the latest checkpoint. 0 (the default)
  /// disables checkpointing: amnesia restarts are cold.
  double checkpoint_interval = 0.0;
};

/// Tuning knobs of the simulated radio and sensing layer.
struct SimulatorOptions {
  /// One-hop message latency in seconds. Zero is allowed (messages deliver
  /// "immediately", still via the event queue, preserving causal order).
  double hop_latency = 0.001;

  /// Seed of the FaultSchedule's probabilistic decisions. Links are
  /// reliable until a LinkFault is set on Simulator::faults(); a lost
  /// message is counted as sent (the energy was spent) but never delivered.
  uint64_t fault_seed = 0xFA017B0D;

  /// Ack/retransmit protocol (see net/transport.h). Off by default.
  TransportOptions transport;

  /// Checkpoint/restore behaviour for amnesia crashes. Off by default.
  RecoveryConfig recovery;

  /// Radio energy model, in abstract units. Transmitting dominates
  /// receiving on real motes; payload size adds a per-number term.
  double tx_cost_per_message = 1.0;
  double tx_cost_per_number = 0.02;
  double rx_cost_per_message = 0.5;
  double rx_cost_per_number = 0.01;
};

/// A running sensor-network simulation.
class Simulator {
 public:
  /// Also installs this simulator's event queue as the process-wide virtual
  /// clock for obs::TraceSpan stamps (last constructed simulator wins).
  explicit Simulator(SimulatorOptions options = {});

  /// Uninstalls the trace clock if this simulator still owns it.
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Registers a node and returns its id. Nodes are owned by the simulator.
  NodeId AddNode(std::unique_ptr<Node> node);

  /// Instantiates one node per slot of `layout` using `factory(slot, spec)`
  /// and wires parent/child/level/position links. Slot i becomes NodeId
  /// base+i where base is the current node count. Calls OnStart() on every
  /// new node afterwards. Returns the ids, indexed by slot.
  std::vector<NodeId> Instantiate(
      const HierarchyLayout& layout,
      const std::function<std::unique_ptr<Node>(int, const HierarchyNodeSpec&)>&
          factory);

  /// Sends `msg` from `msg.from` to `msg.to`. With the reliable transport
  /// enabled the message is acked, retransmitted on timeout, and delivered
  /// to the receiving node exactly once; otherwise it is a plain datagram
  /// subject to the fault schedule. A crashed sender's send
  /// is silently suppressed (a dead radio transmits nothing). Pre: both
  /// endpoints registered.
  void Send(Message msg);

  /// Messages dropped so far (fault schedule or crashed receivers).
  /// Delegates to stats(): one source of truth.
  uint64_t MessagesDropped() const { return stats_.MessagesDropped(); }

  /// Radio energy spent by `node` so far (tx for every transmission
  /// including retries and acks, rx for every delivered copy), under the
  /// options' energy model.
  double EnergyConsumed(NodeId node) const { return energy_[node]; }

  /// Total radio energy spent across the network.
  double TotalEnergyConsumed() const;

  /// Injects a sensor reading into a (leaf) node immediately. Not a message:
  /// sensing is local and free, per the paper's cost model. No-op while the
  /// node is crashed (a dead mote senses nothing).
  void DeliverReading(NodeId node, const Point& value);

  /// Schedules readings for `node` every `period` seconds starting at
  /// `start`, drawing each value from `source()` — until simulation time
  /// exceeds the horizon passed to RunUntil. Ticks that fall inside a crash
  /// interval of the node are skipped (the schedule itself survives).
  void SchedulePeriodicReadings(NodeId node, SimTime start, SimTime period,
                                std::function<Point()> source);

  /// Schedules an arbitrary callback.
  void ScheduleAt(SimTime t, std::function<void()> fn);
  void ScheduleAfter(SimTime delay, std::function<void()> fn);

  /// Runs the simulation until `until` (inclusive).
  void RunUntil(SimTime until);

  /// Runs until the event queue drains.
  void RunAll();

  /// Always 1: the event loop is serial (kept for callers that record it).
  int threads() const { return 1; }

  SimTime Now() const { return queue_.Now(); }

  /// Pending events (for "the queue is not stuck" assertions).
  size_t PendingEvents() const { return queue_.Size(); }

  Node& node(NodeId id) { return *nodes_[id]; }
  const Node& node(NodeId id) const { return *nodes_[id]; }
  size_t NumNodes() const { return nodes_.size(); }

  StatsCollector& stats() { return stats_; }
  const StatsCollector& stats() const { return stats_; }

  /// The fault schedule consulted on every transmission and reading.
  FaultSchedule& faults() { return faults_; }
  const FaultSchedule& faults() const { return faults_; }

  /// The reliable transport (meaningful when options.transport.reliable).
  ReliableTransport& transport() { return *transport_; }
  const ReliableTransport& transport() const { return *transport_; }

  /// Checkpoints every live node's volatile state immediately, regardless
  /// of the configured cadence. Test hook; the periodic CheckpointTick is
  /// the production path.
  void CheckpointNow();

  /// The node's transport incarnation epoch (0 = never restarted).
  uint32_t Incarnation(NodeId node) const {
    return transport_->incarnation(node);
  }

  /// Test hook: called for every physical message that reaches a live
  /// receiver (including acks and duplicate copies, before dedup), in
  /// delivery order. Lets determinism tests record the exact delivery
  /// sequence without touching node code.
  void SetDeliveryTapForTest(std::function<void(const Message&)> tap) {
    delivery_tap_ = std::move(tap);
  }

 private:
  friend class ReliableTransport;

  // The next tick time lives here rather than in the scheduled closure:
  // [this, slot] fits std::function's inline buffer, so a tick allocates
  // nothing.
  struct PeriodicSource {
    NodeId node;
    SimTime period;
    std::function<Point()> generate;
    SimTime next;  // time of the scheduled tick
  };

  void PeriodicTick(size_t slot);

  /// One physical transmission attempt: accounting, fault schedule, then
  /// delivery scheduling for each surviving copy.
  void Transmit(const Message& msg);

  /// Arrival of one physical copy at the receiver.
  void Deliver(const Message& msg);

  /// Periodic checkpoint of every live node (recovery.checkpoint_interval).
  void CheckpointTick(SimTime t);

  /// Amnesia restart of `node`: transport epoch bump, volatile-state reset,
  /// checkpoint restore (if flash holds one), then Node::OnRestart. No-op
  /// if another crash interval still covers the restart instant.
  void RestartNode(NodeId node);

  SimulatorOptions options_;
  EventQueue queue_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<PeriodicSource> periodic_;
  StatsCollector stats_;
  FaultSchedule faults_;
  std::unique_ptr<ReliableTransport> transport_;
  std::vector<double> energy_;  // per NodeId
  SimTime horizon_ = 0.0;       // periodic readings stop beyond this
  std::function<void(const Message&)> delivery_tap_;
  // Simulated per-node flash: the latest checkpoint of each node's volatile
  // state (framed by the node, opaque here). Survives amnesia crashes.
  std::map<NodeId, std::vector<uint8_t>> flash_;
};

}  // namespace sensord

#endif  // SENSORD_NET_NETWORK_H_
