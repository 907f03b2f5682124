#include "net/network.h"

#include <limits>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace sensord {
namespace {

double SimulatorVirtualNow(void* ctx) {
  return static_cast<Simulator*>(ctx)->Now();
}

struct RecoveryMetrics {
  obs::Counter* checkpoints;       // node checkpoints written to flash
  obs::Counter* restarts;          // amnesia restarts executed
  obs::Counter* restored;          // restarts that restored a checkpoint
  obs::Counter* cold_restarts;     // restarts with no usable checkpoint
  obs::Histogram* checkpoint_bytes;
};

const RecoveryMetrics& Metrics() {
  auto& registry = obs::MetricsRegistry::Global();
  static const RecoveryMetrics m{
      registry.GetCounter("recovery.checkpoints"),
      registry.GetCounter("recovery.restarts"),
      registry.GetCounter("recovery.restored_from_checkpoint"),
      registry.GetCounter("recovery.cold_restarts"),
      registry.GetHistogram("recovery.checkpoint_bytes",
                            obs::SizeBoundaries())};
  return m;
}

}  // namespace

Simulator::Simulator(SimulatorOptions options)
    : options_(options),
      faults_(options.fault_seed),
      transport_(new ReliableTransport(this, options.transport)) {
  obs::SetTraceVirtualClock(&SimulatorVirtualNow, this);
  // Amnesia crashes need a restart event at the interval's end; omission
  // crashes recover implicitly (IsNodeUp flips) and keep their memory.
  faults_.SetCrashListener(
      [this](NodeId node, SimTime from, SimTime until, CrashKind kind) {
        // The node's black box dumps at crash onset — the moment the fault
        // takes hold is exactly when its recent history matters. Dump() is a
        // no-op when the recorder is disabled, so goldens are unaffected.
        queue_.ScheduleAt(from, [this, node]() {
          obs::FlightRecorder::Dump(node, "crash", Now());
        });
        if (kind != CrashKind::kAmnesia) return;
        if (until == FaultSchedule::kForever) return;  // never comes back
        // Scheduled as soon as the crash is configured, so the restart
        // (FIFO at equal timestamps) runs before deliveries and readings
        // scheduled later for the same instant.
        queue_.ScheduleAt(until, [this, node]() { RestartNode(node); });
      });
  if (options_.recovery.checkpoint_interval > 0.0) {
    const SimTime interval = options_.recovery.checkpoint_interval;
    queue_.ScheduleAt(interval, [this, interval]() { CheckpointTick(interval); });
  }
}

Simulator::~Simulator() { obs::ClearTraceVirtualClock(this); }

NodeId Simulator::AddNode(std::unique_ptr<Node> node) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  node->sim_ = this;
  node->id_ = id;
  nodes_.push_back(std::move(node));
  energy_.push_back(0.0);
  return id;
}

double Simulator::TotalEnergyConsumed() const {
  double total = 0.0;
  for (double e : energy_) total += e;
  return total;
}

std::vector<NodeId> Simulator::Instantiate(
    const HierarchyLayout& layout,
    const std::function<std::unique_ptr<Node>(int, const HierarchyNodeSpec&)>&
        factory) {
  const NodeId base = static_cast<NodeId>(nodes_.size());
  std::vector<NodeId> ids;
  ids.reserve(layout.nodes.size());
  for (size_t slot = 0; slot < layout.nodes.size(); ++slot) {
    const HierarchyNodeSpec& spec = layout.nodes[slot];
    std::unique_ptr<Node> node = factory(static_cast<int>(slot), spec);
    SENSORD_CHECK(node != nullptr);
    const NodeId id = AddNode(std::move(node));
    ids.push_back(id);
  }
  // Second pass: wire links now that every slot has an id.
  for (size_t slot = 0; slot < layout.nodes.size(); ++slot) {
    const HierarchyNodeSpec& spec = layout.nodes[slot];
    Node& n = *nodes_[base + slot];
    n.level_ = spec.level;
    n.position_ = spec.position;
    n.parent_ = spec.parent_slot < 0
                    ? kNoNode
                    : base + static_cast<NodeId>(spec.parent_slot);
    n.children_.clear();
    for (int child : spec.child_slots) {
      n.children_.push_back(base + static_cast<NodeId>(child));
    }
  }
  for (NodeId id : ids) nodes_[id]->OnStart();
  return ids;
}

void Simulator::Send(Message msg) {
  SENSORD_CHECK_LT(msg.from, nodes_.size());
  SENSORD_CHECK_LT(msg.to, nodes_.size());
  if (!faults_.IsNodeUp(msg.from, Now())) return;  // dead radio: no send
  if (options_.transport.reliable && msg.kind != kMsgTransportAck) {
    transport_->SendReliable(std::move(msg));
    return;
  }
  Transmit(msg);
}

void Simulator::Transmit(const Message& msg) {
  stats_.RecordSend(msg);
  obs::FlightRecorder::Record(msg.from, obs::FlightEventKind::kSend, Now(),
                              msg.to, msg.kind);
  energy_[msg.from] += options_.tx_cost_per_message +
                       options_.tx_cost_per_number *
                           static_cast<double>(msg.size_numbers);
  const TransmissionPlan plan = faults_.DecideTransmission(msg.from, msg.to,
                                                          Now());
  if (plan.drop) {
    stats_.RecordDrop();
    obs::FlightRecorder::Record(msg.from, obs::FlightEventKind::kDrop, Now(),
                                msg.to, msg.kind);
    return;
  }
  for (double extra : plan.extra_delays) {
    const SimTime at = queue_.Now() + options_.hop_latency + extra;
    queue_.ScheduleAt(at, [this, m = msg]() { Deliver(m); });
  }
}

void Simulator::Deliver(const Message& msg) {
  if (!faults_.IsNodeUp(msg.to, Now())) {
    // The copy arrived at a crashed receiver: lost like any other drop.
    stats_.RecordDrop();
    obs::FlightRecorder::Record(msg.to, obs::FlightEventKind::kDrop, Now(),
                                msg.from, msg.kind);
    return;
  }
  energy_[msg.to] += options_.rx_cost_per_message +
                     options_.rx_cost_per_number *
                         static_cast<double>(msg.size_numbers);
  if (delivery_tap_) delivery_tap_(msg);
  if (msg.kind == kMsgTransportAck) {
    obs::FlightRecorder::Record(msg.to, obs::FlightEventKind::kAck, Now(),
                                msg.from,
                                static_cast<int64_t>(msg.transport_seq));
    transport_->HandleAck(msg);  // infrastructure; never reaches the node
    return;
  }
  if (msg.transport_seq != 0 && !transport_->AcceptData(msg)) {
    return;  // duplicate, suppressed (and re-acked) by the transport
  }
  obs::FlightRecorder::Record(msg.to, obs::FlightEventKind::kDeliver, Now(),
                              msg.from, msg.kind);
  nodes_[msg.to]->HandleMessage(msg);
}

void Simulator::DeliverReading(NodeId node, const Point& value) {
  SENSORD_DCHECK_LT(node, nodes_.size());
  if (!faults_.IsNodeUp(node, Now())) return;
  if (faults_.HasSensorFaults(node)) {
    // Corrupt at the source: the node's ingest firewall sees exactly what a
    // broken transducer would emit. Clean nodes never pay for the copy.
    Point corrupted = value;
    faults_.PerturbReading(node, Now(), &corrupted);
    obs::FlightRecorder::Record(node, obs::FlightEventKind::kReading, Now(),
                                0, 0,
                                corrupted.empty() ? 0.0 : corrupted[0]);
    nodes_[node]->OnReading(corrupted);
    return;
  }
  obs::FlightRecorder::Record(node, obs::FlightEventKind::kReading, Now(), 0,
                              0, value.empty() ? 0.0 : value[0]);
  nodes_[node]->OnReading(value);
}

void Simulator::CheckpointNow() {
  // NodeId order: deterministic and identical to the periodic path.
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (!faults_.IsNodeUp(id, Now())) continue;  // a dead mote writes nothing
    std::vector<uint8_t> bytes = nodes_[id]->SaveState();
    if (bytes.empty()) continue;  // stateless node; keep any prior snapshot
    Metrics().checkpoints->Increment();
    Metrics().checkpoint_bytes->Record(static_cast<double>(bytes.size()));
    obs::FlightRecorder::Record(id, obs::FlightEventKind::kCheckpoint, Now(),
                                0, 0, static_cast<double>(bytes.size()));
    flash_[id] = std::move(bytes);
  }
}

void Simulator::CheckpointTick(SimTime t) {
  if (t > horizon_) return;  // same guard as PeriodicTick: chain ends
  CheckpointNow();
  const SimTime next = t + options_.recovery.checkpoint_interval;
  queue_.ScheduleAt(next, [this, next]() { CheckpointTick(next); });
}

void Simulator::RestartNode(NodeId node) {
  SENSORD_DCHECK_LT(node, nodes_.size());
  // An overlapping crash interval may still cover this instant; the node
  // only boots when every interval has released it (a later restart event
  // fires at that interval's end).
  if (!faults_.IsNodeUp(node, Now())) return;
  Metrics().restarts->Increment();
  transport_->OnNodeRestart(node);
  Node& n = *nodes_[node];
  n.ResetVolatileState();
  bool restored = false;
  const auto it = flash_.find(node);
  if (it != flash_.end()) restored = n.RestoreState(it->second);
  if (restored) {
    Metrics().restored->Increment();
  } else {
    Metrics().cold_restarts->Increment();
  }
  obs::FlightRecorder::Record(node, obs::FlightEventKind::kRestart, Now(),
                              restored ? 1 : 0,
                              transport_->incarnation(node));
  // The window between dumps covers exactly the rejoin transition: whatever
  // the node did between crash onset (the "crash" dump) and coming back.
  obs::FlightRecorder::Dump(node, "rejoin", Now());
  n.OnRestart(restored);
}

void Simulator::SchedulePeriodicReadings(NodeId node, SimTime start,
                                         SimTime period,
                                         std::function<Point()> source) {
  SENSORD_CHECK_LT(node, nodes_.size());
  SENSORD_CHECK_GT(period, 0.0);
  const size_t slot = periodic_.size();
  periodic_.push_back(PeriodicSource{node, period, std::move(source), start});
  queue_.ScheduleAt(start, [this, slot]() { PeriodicTick(slot); });
}

void Simulator::PeriodicTick(size_t slot) {
  PeriodicSource& src = periodic_[slot];
  if (src.next > horizon_) return;
  src.next += src.period;
  const SimTime next = src.next;
  // The generator always advances (keeps the data stream identical across
  // fault schedules); DeliverReading discards the value during a crash.
  DeliverReading(src.node, src.generate());
  queue_.ScheduleAt(next, [this, slot]() { PeriodicTick(slot); });
}

void Simulator::ScheduleAt(SimTime t, std::function<void()> fn) {
  queue_.ScheduleAt(t, std::move(fn));
}

void Simulator::ScheduleAfter(SimTime delay, std::function<void()> fn) {
  SENSORD_DCHECK_GE(delay, 0.0);
  ScheduleAt(queue_.Now() + delay, std::move(fn));
}

void Simulator::RunUntil(SimTime until) {
  horizon_ = until;
  queue_.RunUntil(until);
}

void Simulator::RunAll() {
  // horizon_ stays at the last RunUntil value: draining runs every one-shot
  // event (retransmission timers, scheduled restarts) to completion, while
  // the self-rescheduling tick chains (periodic readings, checkpoints) end
  // at the horizon instead of perpetuating the queue forever.
  queue_.RunAll();
}

}  // namespace sensord
