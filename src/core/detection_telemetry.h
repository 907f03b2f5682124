// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// Shared detection telemetry (DESIGN.md §10-§11), registered lazily: the
// per-tier decision-latency histograms, the degraded-window counter, and the
// rejoin-protocol metrics. Latency is *virtual* time from the originating
// leaf's ingest (OutlierReportPayload::ingest_time) to the decision that
// consumed the report, so the histograms answer "how long did the hierarchy
// take to confirm this reading" per tier.

#ifndef SENSORD_CORE_DETECTION_TELEMETRY_H_
#define SENSORD_CORE_DETECTION_TELEMETRY_H_

#include <cstdio>

#include "obs/metrics.h"

namespace sensord {

/// The detection.latency_s.level<N> histogram for hierarchy tier `level`,
/// cached per level so the hot path never formats a metric name. Tiers
/// above 8 (deeper than any shipped experiment) share the last histogram.
inline obs::Histogram* DetectionLatencyHist(int level) {
  constexpr int kMaxLevel = 8;
  // Inline: one shared static array across every including TU.
  static obs::Histogram* hists[kMaxLevel + 1] = {};
  const int idx = level < 1 ? 1 : (level > kMaxLevel ? kMaxLevel : level);
  if (hists[idx] == nullptr) {
    char name[40];
    std::snprintf(name, sizeof(name), "detection.latency_s.level%d", idx);
    hists[idx] = obs::MetricsRegistry::Global().GetHistogram(
        name, obs::DetectionLatencyBoundariesS());
  }
  return hists[idx];
}

/// core.degraded_windows: degraded-state entries of any detector node.
inline obs::Counter* DegradedWindowsCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().GetCounter("core.degraded_windows");
  return counter;
}

/// Rejoin-protocol telemetry (DESIGN.md §10).
struct RejoinMetrics {
  obs::Counter* announces;  // rejoin/recovered announces sent upward
  obs::Counter* resyncs;    // model resyncs (D3) / full snapshots (MGDD)
  obs::Histogram* ttr_s;    // restart -> capability, virtual seconds
};

inline const RejoinMetrics& RejoinTelemetry() {
  auto& registry = obs::MetricsRegistry::Global();
  static const RejoinMetrics m{
      registry.GetCounter("recovery.rejoin_announces"),
      registry.GetCounter("recovery.rejoin_resyncs"),
      registry.GetHistogram("recovery.time_to_recover_s",
                            obs::DurationBoundariesS())};
  return m;
}

}  // namespace sensord

#endif  // SENSORD_CORE_DETECTION_TELEMETRY_H_
