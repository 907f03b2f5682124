#include "net/stats_collector.h"

#include <array>
#include <cstdio>
#include <string>

#include "obs/metrics.h"

namespace sensord {
namespace {

// Human-readable labels for the well-known kinds in core/protocol.h. The
// transport layer is application-agnostic, so the names are mirrored here
// rather than included — keep in sync with core/protocol.h (the
// StatsCollectorTest.EveryProtocolKindHasALabel test checks the mirror).
const char* KindLabel(MessageKind kind) {
  switch (kind) {
    case 1: return "sample_value";
    case 2: return "outlier_report";
    case 3: return "global_model_update";
    case 4: return "raw_reading";
    case 5: return "query_request";
    case 6: return "query_response";
    case 7: return "rejoin_announce";
    case 8: return "rejoin_resync";
    case kMsgTransportAck: return "transport_ack";
    default: return nullptr;
  }
}

obs::Counter* KindCounter(MessageKind kind) {
  auto& registry = obs::MetricsRegistry::Global();
  // Fast path: the well-known protocol kinds resolve through a small cache
  // so steady-state sends skip the registry's name lookup entirely.
  constexpr MessageKind kCached = 9;
  static std::array<obs::Counter*, kCached> cache = [] {
    auto& reg = obs::MetricsRegistry::Global();
    std::array<obs::Counter*, kCached> out{};
    for (MessageKind k = 0; k < kCached; ++k) {
      const char* label = KindLabel(k);
      const std::string name = label != nullptr
                                   ? std::string("net.messages.") + label
                                   : "net.messages.kind_" + std::to_string(k);
      out[k] = reg.GetCounter(name);
    }
    return out;
  }();
  if (kind < kCached) return cache[kind];
  if (kind == kMsgTransportAck) {
    static obs::Counter* const ack_counter =
        obs::MetricsRegistry::Global().GetCounter("net.messages.transport_ack");
    return ack_counter;
  }
  return registry.GetCounter("net.messages.kind_" + std::to_string(kind));
}

struct NetMetrics {
  obs::Counter* messages_total;
  obs::Counter* numbers_total;
  obs::Counter* messages_dropped;
};

const NetMetrics& Metrics() {
  auto& registry = obs::MetricsRegistry::Global();
  static const NetMetrics m{registry.GetCounter("net.messages.total"),
                            registry.GetCounter("net.numbers.total"),
                            registry.GetCounter("net.messages.dropped")};
  return m;
}

}  // namespace

void StatsCollector::RecordSend(const Message& msg) {
  ++total_messages_;
  total_numbers_ += msg.size_numbers;
  if (msg.kind < kSmallKinds) {
    ++by_small_kind_[msg.kind];
  } else {
    ++by_large_kind_[msg.kind];
  }
  // Mirror into the process-wide registry (cumulative across Reset()).
  Metrics().messages_total->Increment();
  Metrics().numbers_total->Increment(msg.size_numbers);
  KindCounter(msg.kind)->Increment();
}

void StatsCollector::RecordDrop() {
  ++dropped_;
  Metrics().messages_dropped->Increment();
}

uint64_t StatsCollector::MessagesOfKind(MessageKind kind) const {
  if (kind < kSmallKinds) return by_small_kind_[kind];
  const auto it = by_large_kind_.find(kind);
  return it == by_large_kind_.end() ? 0 : it->second;
}

void StatsCollector::Reset() {
  // Only the per-instance tallies reset; the registry mirrors are
  // process-cumulative by design (see header).
  total_messages_ = 0;
  total_numbers_ = 0;
  dropped_ = 0;
  by_small_kind_.fill(0);
  by_large_kind_.clear();
}

}  // namespace sensord
