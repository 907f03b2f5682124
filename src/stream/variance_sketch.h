// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// epsilon-approximate variance over a count-based sliding window.
//
// This is the "variance estimator" of the paper's prototype (Section 10,
// Implementation), following Babcock, Datar, Motwani and O'Callaghan,
// "Maintaining Variance and k-Medians over Data Stream Windows", PODS 2003.
// The stream is summarized by a short list of buckets, each holding the
// count, mean and internal variance of a contiguous run of elements. The
// merge rule collapses two adjacent buckets only while the merged internal
// variance stays within an eps^2/9 fraction of the combined variance of all
// more recent elements, so the only uncertain term at query time — the
// partially expired oldest bucket — contributes at most an eps relative
// error.
//
// Every operation is O(1) amortised:
//
//  - Queries read a two-stack window aggregate (Tangwongsan, Hirzel and
//    Schneider, "General incremental sliding-window aggregation", VLDB
//    2015). The buckets that existed at the last merge scan (the *front*)
//    each carry the combined statistics of themselves and every newer front
//    bucket; the buckets appended since (the *back*) are covered by one
//    running aggregate. The window is then three combinations away, with
//    no subtraction.
//  - The merge scan, which also rebuilds the front aggregates, runs when
//    the arrival index is a multiple of bit_floor(max(8, bound / 16)),
//    where the bound is TheoreticalBoundBuckets(). A sketch holds about a
//    quarter of its bound, so that is 4 to 8 bucket visits per element. The
//    scan compacts in place towards the newest end, and runs early when
//    the front empties.
//  - Buckets live in a ring, oldest first, that grows on demand and never
//    holds an expired slot.
//
// Memory is O((1/eps^2) log |W|) buckets — the second term of the paper's
// Theorem 1 memory bound O(d(|R| + (1/eps^2) log |W|)). The class also
// exposes its exact footprint and the theoretical bound so the Section 10.3
// memory experiment can compare the two (the paper reports the actual
// footprint 55-65% below the bound).

#ifndef SENSORD_STREAM_VARIANCE_SKETCH_H_
#define SENSORD_STREAM_VARIANCE_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sensord {

class SnapshotReader;
class SnapshotWriter;

/// Streaming sketch answering windowed variance / standard deviation /
/// mean queries with bounded relative error, in one pass and sublinear
/// memory. Values are arbitrary doubles; sensord feeds it one coordinate of
/// the (normalized) observation stream per instance.
class VarianceSketch {
 public:
  /// Sketches the last `window_size` values with variance relative error at
  /// most `epsilon`. Allocates nothing; bucket storage is sized on the
  /// first Add().
  /// Pre: window_size > 0, 0 < epsilon <= 1.
  VarianceSketch(size_t window_size, double epsilon);

  /// Feeds the next stream value.
  void Add(double x);

  /// Estimated variance of the current window (population variance, i.e.
  /// the mean squared deviation). Returns 0 before the first element.
  double Variance() const;

  /// Estimated standard deviation: sqrt(Variance()).
  double StdDev() const;

  /// Estimated mean of the current window.
  double Mean() const;

  /// Estimated number of elements in the window (exact once warmed up
  /// except for the partially expired oldest bucket).
  double Count() const;

  /// Total values observed so far.
  uint64_t total_seen() const { return now_; }

  size_t window_size() const { return window_size_; }
  double epsilon() const { return epsilon_; }

  /// Current number of buckets.
  size_t NumBuckets() const { return count_; }

  /// Worst-case bucket count implied by the maintenance invariant (the
  /// O((9/eps^2) log |W|) bound). NumBuckets() never exceeds this: the
  /// sketch force-merges its oldest buckets if the invariant alone has not
  /// compacted enough, which only spends error budget the analysis already
  /// accounts for.
  size_t TheoreticalBoundBuckets() const { return max_buckets_; }

  /// Bucket slots allocated, live or spare. Never more than
  /// min(window_size, TheoreticalBoundBuckets()).
  size_t CapacityBuckets() const { return ring_.size(); }

  /// Footprint of every number the sketch stores at `bytes_per_number`
  /// bytes each (paper convention: 2, a 16-bit architecture): 5 per bucket
  /// (count, mean and variance, and the mean and variance of its front
  /// aggregate) plus 5 for the whole sketch (the oldest arrival index, the
  /// front's element count and the running back aggregate).
  size_t MemoryBytes(size_t bytes_per_number) const;

  /// Heap bytes the sketch holds on this machine: its bucket ring's
  /// capacity.
  size_t ResidentBytes() const { return ring_.capacity() * sizeof(Slot); }

  /// The footprint corresponding to TheoreticalBoundBuckets() buckets of 5
  /// numbers each (first/last timestamps, count, mean, variance).
  size_t TheoreticalBoundBytes(size_t bytes_per_number) const;

  /// Appends the complete sketch state (clock, insertions since the last
  /// merge scan, buckets newest-first) to `writer`, for checkpoint/restore
  /// (core/snapshot.h). The aggregates are not written: Restore() refolds
  /// them bit-identically from the buckets.
  void Serialize(SnapshotWriter* writer) const;

  /// Overwrites this sketch with state previously written by Serialize().
  /// Returns false, leaving the sketch unchanged, if the reader fails, the
  /// saved window_size/epsilon do not match this sketch's configuration, or
  /// the buckets are not a state Add() can reach: more than
  /// min(window_size, TheoreticalBoundBuckets()) of them, a bucket whose
  /// count is below 1 or not last - first + 1, buckets that do not tile the
  /// arrivals up to the clock (so arrival indices that do not increase, or
  /// a bucket ending at or after the clock), an oldest bucket that has
  /// already expired, or as many insertions since the last scan as buckets.
  bool Restore(SnapshotReader* reader);

 private:
  // Count, mean and sum of squared deviations from the mean (the paper's
  // V) of a run of elements.
  struct Stats {
    double n = 0.0;
    double mean = 0.0;
    double var = 0.0;
  };

  // One bucket. Its arrival indices follow from the counts: the buckets
  // tile the arrivals oldest_first_ .. now_ - 1.
  struct Slot {
    Stats bucket;
    // Front buckets: the mean and variance of Combine(suffix of the next
    // newer front bucket, bucket), i.e. of this bucket and every newer
    // front bucket. Unused in the back, and never read for the oldest
    // bucket.
    double suffix_mean = 0.0;
    double suffix_var = 0.0;
  };

  // Statistics of the union of two adjacent runs (the paper's combination
  // rule).
  static Stats Combine(const Stats& newer, const Stats& older);

  // The merge rule: true iff the union of the adjacent runs `newer` and
  // `older` has an internal variance within a 1/k fraction of
  // `prefix_var`, the variance of every element newer than the pair.
  bool Mergeable(const Stats& newer, const Stats& older,
                 double prefix_var) const;

  // The i-th live bucket, oldest first.
  Slot& At(size_t i) { return ring_[Physical(i)]; }
  const Slot& At(size_t i) const { return ring_[Physical(i)]; }
  size_t Physical(size_t i) const {
    const size_t p = head_ + i;
    return p < ring_.size() ? p : p - ring_.size();
  }

  // Buckets covered by the per-bucket aggregates; the rest, the newest
  // since_scan_ buckets, are covered by back_.
  size_t FrontSize() const { return count_ - since_scan_; }

  // The window's statistics, with a partially expired oldest bucket
  // counted as half of it.
  Stats WindowStats() const;

  // Appends the singleton bucket of `x` to the back.
  void Append(double x);

  // Merges the two oldest buckets (the hard cap). Pre: FrontSize() >= 2.
  void MergeOldestPair();

  // Applies the merge rule over every bucket, newest to oldest, compacting
  // in place, and makes every bucket a front bucket.
  void Scan();

  size_t window_size_;
  double epsilon_;
  double k_;  // 9 / epsilon^2, the merge-rule slack factor
  size_t max_buckets_;
  size_t scan_interval_;  // a scan runs when now_ is a multiple of this
  // Live buckets are ring_[head_], ring_[head_ + 1], ... (wrapping), count_
  // of them, oldest first.
  std::vector<Slot> ring_;
  size_t head_ = 0;
  size_t count_ = 0;
  uint64_t oldest_first_ = 0;  // arrival index of the oldest live element
  double front_n_ = 0.0;       // elements in the front buckets
  Stats back_;                 // the back buckets combined, oldest first
  uint64_t now_ = 0;           // arrival index of the next element
  uint64_t since_scan_ = 0;  // insertions since the last scan = back buckets
};

}  // namespace sensord

#endif  // SENSORD_STREAM_VARIANCE_SKETCH_H_
