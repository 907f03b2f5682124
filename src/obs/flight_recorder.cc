#include "obs/flight_recorder.h"

#include <cstdio>
#include <map>
#include <vector>

namespace sensord::obs {

namespace internal {
bool g_flight_enabled = false;
}  // namespace internal

namespace {

// One node's ring: a fixed vector written modulo capacity. `total` counts
// every event ever recorded since the last dump/clear, so dumps can report
// how many events the ring evicted.
struct Ring {
  std::vector<FlightEvent> slots;
  uint64_t total = 0;  // events recorded since the last dump
};

struct RecorderState {
  size_t capacity = 64;
  std::map<int64_t, Ring> rings;
  FILE* sink = nullptr;
};

RecorderState& State() {
  // Leaked: dumps from static destructors must still find live state.
  static RecorderState* state = new RecorderState();
  return *state;
}

// Writes one event line. The caller has checked the sink. Values are %.9g —
// same rendering as the span sink, so two same-seed runs print identical
// bytes.
void WriteEventLine(FILE* sink, int64_t node, const FlightEvent& e) {
  std::fprintf(sink,
               "{\"fr\":\"%s\",\"node\":%lld,\"vt\":%.9g,\"a\":%lld,"
               "\"b\":%lld,\"value\":%.9g}\n",
               FlightEventKindName(e.kind), static_cast<long long>(node),
               e.vt, static_cast<long long>(e.a), static_cast<long long>(e.b),
               e.value);
}

// Dumps one ring and clears it; no-op without a sink or events.
void DumpRing(RecorderState& state, int64_t node, Ring& ring,
              const char* reason, double vt) {
  if (state.sink == nullptr || ring.total == 0) return;
  const size_t kept =
      ring.total < ring.slots.size() ? static_cast<size_t>(ring.total)
                                     : ring.slots.size();
  std::fprintf(state.sink,
               "{\"flight\":\"%s\",\"node\":%lld,\"vt\":%.9g,\"events\":%zu,"
               "\"evicted\":%llu}\n",
               reason, static_cast<long long>(node), vt, kept,
               static_cast<unsigned long long>(ring.total - kept));
  // Oldest first: the ring's write cursor is total % capacity, so the
  // oldest retained slot sits right at the cursor once the ring has lapped.
  const size_t start =
      ring.total < ring.slots.size()
          ? 0
          : static_cast<size_t>(ring.total % ring.slots.size());
  for (size_t i = 0; i < kept; ++i) {
    WriteEventLine(state.sink, node,
                   ring.slots[(start + i) % ring.slots.size()]);
  }
  ring.total = 0;
}

}  // namespace

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kReading: return "reading";
    case FlightEventKind::kSend: return "send";
    case FlightEventKind::kDeliver: return "deliver";
    case FlightEventKind::kDrop: return "drop";
    case FlightEventKind::kAck: return "ack";
    case FlightEventKind::kCheckpoint: return "checkpoint";
    case FlightEventKind::kRestart: return "restart";
    case FlightEventKind::kQuarantine: return "quarantine";
    case FlightEventKind::kRejoin: return "rejoin";
  }
  return "unknown";
}

void FlightRecorder::Enable(size_t capacity_per_node) {
  RecorderState& state = State();
  state.capacity = capacity_per_node < 1 ? 1 : capacity_per_node;
  state.rings.clear();
  internal::g_flight_enabled = true;
}

void FlightRecorder::Disable() {
  RecorderState& state = State();
  internal::g_flight_enabled = false;
  state.rings.clear();
}

Status FlightRecorder::OpenDumpSink(const std::string& path) {
  RecorderState& state = State();
  if (state.sink != nullptr) {
    std::fclose(state.sink);
    state.sink = nullptr;
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open flight dump sink: " + path);
  }
  state.sink = f;
  return Status::Ok();
}

void FlightRecorder::CloseDumpSink() {
  RecorderState& state = State();
  if (state.sink != nullptr) {
    std::fclose(state.sink);
    state.sink = nullptr;
  }
}

void FlightRecorder::RecordSlow(int64_t node, FlightEventKind kind, double vt,
                                int64_t a, int64_t b, double value) {
  RecorderState& state = State();
  Ring& ring = state.rings[node];
  if (ring.slots.size() != state.capacity) {
    ring.slots.assign(state.capacity, FlightEvent{});
    ring.total = 0;
  }
  ring.slots[static_cast<size_t>(ring.total % ring.slots.size())] =
      FlightEvent{vt, kind, a, b, value};
  ++ring.total;
}

void FlightRecorder::Dump(int64_t node, const char* reason, double vt) {
  if (!Enabled()) return;
  RecorderState& state = State();
  const auto it = state.rings.find(node);
  if (it == state.rings.end()) return;
  DumpRing(state, node, it->second, reason, vt);
}

void FlightRecorder::DumpAll(const char* reason) {
  if (!Enabled()) return;
  RecorderState& state = State();
  // std::map: ascending node id, deterministic dump order.
  for (auto& [node, ring] : state.rings) {
    DumpRing(state, node, ring, reason, 0.0);
  }
}

size_t FlightRecorder::BufferedEventsForTest(int64_t node) {
  RecorderState& state = State();
  const auto it = state.rings.find(node);
  if (it == state.rings.end()) return 0;
  const Ring& ring = it->second;
  return ring.total < ring.slots.size() ? static_cast<size_t>(ring.total)
                                        : ring.slots.size();
}

}  // namespace sensord::obs
