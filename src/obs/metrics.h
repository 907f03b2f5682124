// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// The sensord metrics layer: monotonic counters, gauges and fixed-boundary
// histograms, registered by dotted name (`subsystem.object.metric`) in a
// process-wide MetricsRegistry.
//
// The paper's evaluation (Sections 9-10) is entirely about quantities a
// running system must be able to report — messages per tier, sample
// propagation volume, per-update latency — so the hot paths in stream/,
// core/ and net/ feed these metrics unconditionally. The design budget is a
// few nanoseconds per event: updates are plain integer and double
// arithmetic (no locks, no allocation), and call sites cache the metric
// pointer in a function-local static so the registry lookup happens once per
// process. Like the rest of sensord, metrics are single-threaded by
// construction (DESIGN.md §12).

#ifndef SENSORD_OBS_METRICS_H_
#define SENSORD_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace sensord::obs {

/// A monotonically increasing event count. Like every metric, owned by its
/// registry and updated from one thread (DESIGN.md §12).
class Counter {
 public:
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t delta = 1) { value_ += delta; }

  uint64_t value() const { return value_; }

 private:
  friend class MetricsRegistry;
  Counter() = default;

  /// Counters are monotonic; resetting is reserved for the registry's
  /// ResetValues (test isolation and bench warm-up epochs).
  void Reset() { value_ = 0; }

  uint64_t value_ = 0;
};

/// A last-written-value metric (queue depths, model sizes, configuration).
class Gauge {
 public:
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value) { value_ = value; }
  void Add(double delta) { value_ += delta; }

  double value() const { return value_; }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  void Reset() { value_ = 0.0; }

  double value_ = 0.0;
};

/// A fixed-boundary histogram for latency and size distributions.
///
/// Bucket i < boundaries.size() counts values in (boundaries[i-1],
/// boundaries[i]] (the first bucket is unbounded below); one overflow bucket
/// counts values above the last boundary. Record() is a binary search over
/// the boundaries plus two plain adds. Quantiles are interpolated within the
/// containing bucket, so they are exact to within one bucket width — size
/// the boundaries to the precision the metric needs.
class Histogram {
 public:
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// `count` boundaries at start, start*factor, start*factor^2, ...
  /// The standard latency layout is ExponentialBoundaries(16, 2, 26):
  /// 16ns .. ~0.5s. Pre: start > 0, factor > 1, count >= 1.
  static std::vector<double> ExponentialBoundaries(double start, double factor,
                                                   size_t count);

  /// `count` boundaries at start, start+step, ... Pre: step > 0, count >= 1.
  static std::vector<double> LinearBoundaries(double start, double step,
                                              size_t count);

  void Record(double value);

  /// Total recorded values (sums the buckets; intended for snapshots and
  /// tests, not per-event use).
  uint64_t Count() const;

  /// Sum of recorded values.
  double Sum() const { return sum_; }

  /// Interpolated q-quantile of the recorded values (q in [0, 1]); exact to
  /// within one bucket width. Returns 0 when empty; values in the overflow
  /// bucket clamp to the last boundary.
  double Quantile(double q) const;

  const std::vector<double>& boundaries() const { return boundaries_; }

  /// Count in bucket `i`. Pre: i <= boundaries().size() (the last index is
  /// the overflow bucket).
  uint64_t BucketCount(size_t i) const { return buckets_[i]; }

 private:
  friend class MetricsRegistry;
  /// Pre: boundaries non-empty and strictly increasing.
  explicit Histogram(std::vector<double> boundaries);
  void Reset();

  std::vector<double> boundaries_;
  std::vector<uint64_t> buckets_;  // boundaries_.size()+1
  double sum_ = 0.0;
};

/// What a metric is; used by snapshots and the collision check.
enum class MetricKind { kCounter, kGauge, kHistogram };

/// Point-in-time reading of one metric, for exporters.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  uint64_t counter_value = 0;  // kCounter
  double gauge_value = 0.0;    // kGauge
  // kHistogram:
  uint64_t hist_count = 0;
  double hist_sum = 0.0;
  double hist_p50 = 0.0;
  double hist_p95 = 0.0;
  double hist_p99 = 0.0;
  /// Bucket layout in ascending boundary order (buckets has one extra
  /// trailing overflow entry), so exporters emit buckets in a stable order
  /// and same-seed artifacts diff cleanly.
  std::vector<double> hist_boundaries;
  std::vector<uint64_t> hist_buckets;
};

/// Registry of metrics by dotted name. Registration is idempotent: asking
/// for an existing name of the same kind returns the same object (so
/// translation units can independently name-register the metric they feed),
/// while re-registering a name as a different kind is a programming error
/// (SENSORD_CHECK). Returned pointers are stable for the registry's
/// lifetime; metrics are never unregistered.
///
/// MetricsRegistry::Global() is the process-wide instance every shipped
/// instrumentation site uses; separate instances exist for tests. Neither
/// registration nor updates are synchronized: sensord runs on one thread
/// (DESIGN.md §12).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry (never destroyed).
  static MetricsRegistry& Global();

  /// Registers (or finds) a counter. Pre: `name` is not another kind.
  Counter* GetCounter(const std::string& name);

  /// Registers (or finds) a gauge. Pre: `name` is not another kind.
  Gauge* GetGauge(const std::string& name);

  /// Registers (or finds) a histogram. On first registration the boundaries
  /// must be non-empty and strictly increasing; later calls return the
  /// existing histogram and ignore `boundaries`. Pre: `name` is not another
  /// kind.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> boundaries);

  /// Number of registered metrics.
  size_t size() const;

  /// Reads every metric, sorted by name.
  std::vector<MetricSnapshot> Snapshot() const;

  /// Zeroes every metric's value without invalidating registered pointers.
  /// For test isolation and bench warm-up epochs only: counters are
  /// conceptually monotonic.
  void ResetValues();

  /// Zeroes the *global* registry — the canonical way a test isolates
  /// itself from counters earlier tests bled into Global(). Prefer the
  /// ScopedMetricsReset RAII below, which also re-zeroes on scope exit so
  /// the test leaves no residue for its successors either.
  static void ResetForTest() { Global().ResetValues(); }

 private:
  // Rejects (SENSORD_CHECK) `name` registered under a different kind.
  void CheckKindCollision(const std::string& name, MetricKind kind) const;

  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The standard latency histogram layout: exponential 16ns .. ~0.5s.
std::vector<double> LatencyBoundariesNs();

/// The standard size histogram layout: exponential 1 .. 32768.
std::vector<double> SizeBoundaries();

/// The standard virtual-time duration layout: exponential 0.125s .. ~4096s.
/// Used by recovery metrics (e.g. recovery.time_to_recover_s) whose values
/// are simulated seconds, not wall-clock nanoseconds.
std::vector<double> DurationBoundariesS();

/// The detection-latency layout: exponential 0.1ms .. ~840s of *virtual*
/// time. Sized for the detection.latency_s.level<N> histograms (DESIGN.md
/// §11): one hop costs ~1ms, so sub-second chains need sub-millisecond
/// resolution, while retransmit-delayed escalations reach tens of seconds.
std::vector<double> DetectionLatencyBoundariesS();

/// Zeroes the global registry on construction AND destruction: the test
/// body observes only its own increments, and the next test inherits a
/// clean slate regardless of how this one exits.
class ScopedMetricsReset {
 public:
  ScopedMetricsReset() { MetricsRegistry::ResetForTest(); }
  ~ScopedMetricsReset() { MetricsRegistry::ResetForTest(); }

  ScopedMetricsReset(const ScopedMetricsReset&) = delete;
  ScopedMetricsReset& operator=(const ScopedMetricsReset&) = delete;
};

}  // namespace sensord::obs

#endif  // SENSORD_OBS_METRICS_H_
