// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// The abstract simulated node.
//
// A Node is one process in the sensor network: a leaf sensor, a leader at
// some tier of the virtual-grid hierarchy (Section 2, Figure 1), or a
// baseline's sink. Nodes learn their place in the hierarchy (parent,
// children, level) from the Simulator during setup, receive messages via
// HandleMessage, and — for leaf sensors — receive their own physical
// measurements via OnReading, which models the sensing hardware rather than
// a radio and therefore costs no messages.

#ifndef SENSORD_NET_NODE_H_
#define SENSORD_NET_NODE_H_

#include <cstdint>
#include <vector>

#include "net/message.h"
#include "util/math_utils.h"

namespace sensord {

class Simulator;

/// Physical placement of a node on the 2-d deployment plane (Section 2).
struct NodePosition {
  double x = 0.0;
  double y = 0.0;
};

/// Base class of all simulated processes.
class Node {
 public:
  virtual ~Node() = default;

  /// Called once after the topology is wired, before any event fires.
  /// Default: no-op.
  virtual void OnStart() {}

  /// Called when a message addressed to this node is delivered.
  virtual void HandleMessage(const Message& msg) = 0;

  /// Called when this node's own sensor produces a measurement. Only leaf
  /// sensors receive readings. Default: no-op.
  virtual void OnReading(const Point& value) { (void)value; }

  // Crash-recovery hooks (DESIGN.md §10). The Simulator checkpoints nodes
  // on a virtual-time cadence and drives amnesia restarts through
  // ResetVolatileState -> RestoreState -> OnRestart. The byte payloads are
  // opaque to net/: detector nodes frame them with core/snapshot.h.

  /// Serializes this node's volatile state for a checkpoint. Returning an
  /// empty vector (the default) means "nothing to checkpoint" and the
  /// node's previous checkpoint, if any, is kept.
  virtual std::vector<uint8_t> SaveState() const { return {}; }

  /// Restores state previously returned by SaveState(). Returns false if
  /// the bytes are unusable (corrupt, wrong version, mismatched config);
  /// the node then continues from its reset (cold) state. Default: false.
  virtual bool RestoreState(const std::vector<uint8_t>& bytes) {
    (void)bytes;
    return false;
  }

  /// Erases all volatile state, as an amnesia crash would. Called before
  /// RestoreState on every amnesia restart. Default: no-op (a stateless
  /// node has nothing to lose).
  virtual void ResetVolatileState() {}

  /// Called after an amnesia restart completes, with whether a checkpoint
  /// was restored. The node's new transport incarnation is
  /// Simulator::Incarnation(id()). Detector nodes use this to announce their
  /// rejoin to the parent. Default: no-op.
  virtual void OnRestart(bool restored_from_checkpoint) {
    (void)restored_from_checkpoint;
  }

  NodeId id() const { return id_; }

  /// 1-based tier in the hierarchy; 1 = leaf level, increasing upward.
  int level() const { return level_; }

  /// Parent leader, or kNoNode for the hierarchy root.
  NodeId parent() const { return parent_; }

  bool is_root() const { return parent_ == kNoNode; }
  bool is_leaf() const { return level_ == 1; }

  const std::vector<NodeId>& children() const { return children_; }

  const NodePosition& position() const { return position_; }

  /// The simulator this node is registered with; valid after registration.
  Simulator* sim() const { return sim_; }

 private:
  friend class Simulator;

  Simulator* sim_ = nullptr;
  NodeId id_ = kNoNode;
  int level_ = 1;
  NodeId parent_ = kNoNode;
  std::vector<NodeId> children_;
  NodePosition position_;
};

}  // namespace sensord

#endif  // SENSORD_NET_NODE_H_
