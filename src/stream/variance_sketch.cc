#include "stream/variance_sketch.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/snapshot.h"
#include "util/check.h"

#include "util/math_utils.h"

namespace sensord {

namespace {

// The merge scan runs every max(kMinScanInterval, bound / kScanSpread)
// insertions, rounded down to a power of two, where `bound` is
// TheoreticalBoundBuckets(). A sketch holds about a quarter of its bound, so
// a scan visits kScanSpread / 4 to kScanSpread / 2 buckets per insertion,
// amortised. Between scans about one merge-ready pair accumulates per
// insertion, so the bucket count peaks about one interval above its
// post-scan level.
constexpr size_t kMinScanInterval = 8;
constexpr size_t kScanSpread = 16;

// Ring slots allocated on the first Add(); the ring grows by an eighth when
// full, up to the most buckets Add() can keep.
constexpr size_t kInitialSlots = 16;

}  // namespace

VarianceSketch::VarianceSketch(size_t window_size, double epsilon)
    : window_size_(window_size), epsilon_(epsilon) {
  SENSORD_CHECK_GT(window_size_, 0u);
  SENSORD_CHECK_GT(epsilon_, 0.0);
  SENSORD_CHECK_LE(epsilon_, 1.0);
  k_ = 9.0 / (epsilon_ * epsilon_);
  // One bucket "level" per doubling of the window plus the slack factor of
  // buckets the invariant tolerates per level.
  const size_t levels = static_cast<size_t>(Log2Ceil(window_size_)) + 2;
  max_buckets_ = static_cast<size_t>(std::ceil(k_ + 1.0)) * levels;
  scan_interval_ =
      std::bit_floor(std::max(kMinScanInterval, max_buckets_ / kScanSpread));
}

VarianceSketch::Stats VarianceSketch::Combine(const Stats& newer,
                                              const Stats& older) {
  Stats out;
  out.n = newer.n + older.n;
  const double older_share = older.n / out.n;
  const double delta = older.mean - newer.mean;
  out.mean = newer.mean + delta * older_share;
  out.var = newer.var + older.var + newer.n * older_share * delta * delta;
  return out;
}

bool VarianceSketch::Mergeable(const Stats& newer, const Stats& older,
                               double prefix_var) const {
  // k * Combine(newer, older).var <= prefix_var, multiplied through by the
  // merged count so the test needs no division.
  const double n = newer.n + older.n;
  const double delta = older.mean - newer.mean;
  const double merged_var_times_n =
      (newer.var + older.var) * n + newer.n * older.n * delta * delta;
  return k_ * merged_var_times_n <= prefix_var * n;
}

void VarianceSketch::Add(double x) {
  const uint64_t t = now_;
  ++now_;

  // Expire the oldest bucket once its newest element has left the window
  // (t - W, t]. The previous Add() left no bucket ending at or before
  // t - 1 - W, and the buckets tile the arrivals, so at most one goes and
  // the count never exceeds W.
  if (count_ > 0) {
    const double n = At(0).bucket.n;
    if (oldest_first_ + static_cast<uint64_t>(n) - 1 + window_size_ <= t) {
      oldest_first_ += static_cast<uint64_t>(n);
      front_n_ -= n;
      head_ = Physical(1);
      --count_;
    }
  }

  // Hard cap: if the merge rule alone has left too many buckets, merge at
  // the old end, where the error budget lives.
  if (count_ >= max_buckets_) {
    if (FrontSize() < 2) Scan();
    if (count_ >= max_buckets_) MergeOldestPair();
  }

  Append(x);
  // Scans fall on fixed arrival indices, so sketches fed in lockstep (the
  // leaves of one network) scan on the same readings.
  if (FrontSize() == 0 || now_ % scan_interval_ == 0) Scan();
}

void VarianceSketch::Append(double x) {
  if (count_ == ring_.size()) {
    // Grow, unwrapping the live buckets to the start of the new ring.
    const size_t limit = std::min(window_size_, max_buckets_);
    const size_t size = std::min(
        limit, std::max(kInitialSlots, ring_.size() + ring_.size() / 8));
    std::vector<Slot> grown(size);
    for (size_t i = 0; i < count_; ++i) grown[i] = At(i);
    ring_.swap(grown);
    head_ = 0;
  }
  Slot& slot = ring_[Physical(count_)];
  ++count_;
  slot.bucket = Stats{1.0, x, 0.0};
  back_ = since_scan_ == 0 ? slot.bucket : Combine(slot.bucket, back_);
  ++since_scan_;
}

void VarianceSketch::MergeOldestPair() {
  // The merged bucket becomes the oldest, whose front aggregate is never
  // read, so only its statistics change.
  At(1).bucket = Combine(At(1).bucket, At(0).bucket);
  head_ = Physical(1);
  --count_;
}

void VarianceSketch::Scan() {
  since_scan_ = 0;
  back_ = Stats{};
  if (count_ == 0) return;

  // The merge rule collapses the adjacent pair (older, cur) whenever the
  // merged bucket's internal variance stays within a 1/k fraction of the
  // combined variance of everything newer than the pair (`prefix`). One
  // pass, newest to oldest; the newest bucket is never merged. After a
  // merge the scan stays on the merged bucket with the prefix unchanged;
  // once a pair is rejected, `cur` is final, the prefix absorbs it, and
  // the prefix is exactly `cur`'s front aggregate. Kept buckets are written
  // from the newest end down (physical slots, stepped down with
  // wrap-around), so the scan compacts in place and the freed slots end up
  // below the new head.
  const size_t size = ring_.size();
  const auto down = [size](size_t slot) {
    return slot == 0 ? size - 1 : slot - 1;
  };
  size_t write = Physical(count_ - 1);
  Stats prefix = ring_[write].bucket;
  ring_[write].suffix_mean = prefix.mean;
  ring_[write].suffix_var = prefix.var;
  size_t kept = 1;
  if (count_ > 1) {
    size_t read = down(write);
    Stats cur = ring_[read].bucket;
    for (size_t left = count_ - 2; left > 0; --left) {
      read = down(read);
      const Stats older = ring_[read].bucket;
      if (Mergeable(cur, older, prefix.var)) {
        cur = Combine(cur, older);
        continue;
      }
      prefix = Combine(prefix, cur);
      write = down(write);
      ring_[write] = Slot{cur, prefix.mean, prefix.var};
      ++kept;
      cur = older;
    }
    prefix = Combine(prefix, cur);
    write = down(write);
    ring_[write] = Slot{cur, prefix.mean, prefix.var};
    ++kept;
  }
  head_ = write;
  count_ = kept;
  front_n_ = prefix.n;
}

VarianceSketch::Stats VarianceSketch::WindowStats() const {
  if (count_ == 0) return Stats{};
  Stats oldest = At(0).bucket;
  if (oldest_first_ + window_size_ < now_) {
    // Partially expired oldest bucket (the BDMO estimate): assume half of
    // its elements survive, carrying half its internal variance and its
    // mean. The maintenance invariant bounds the error of this guess.
    oldest.n = std::max(1.0, oldest.n / 2.0);
    oldest.var /= 2.0;
  }
  if (FrontSize() >= 2) {
    // The second-oldest bucket's front aggregate: every front element but
    // the oldest bucket's.
    const Stats older_front{front_n_ - At(0).bucket.n, At(1).suffix_mean,
                            At(1).suffix_var};
    const Stats rest =
        since_scan_ == 0 ? older_front : Combine(back_, older_front);
    return Combine(rest, oldest);
  }
  return since_scan_ == 0 ? oldest : Combine(back_, oldest);
}

double VarianceSketch::Variance() const {
  const Stats window = WindowStats();
  return window.n > 0 ? window.var / window.n : 0.0;
}

double VarianceSketch::StdDev() const { return std::sqrt(Variance()); }

double VarianceSketch::Mean() const { return WindowStats().mean; }

double VarianceSketch::Count() const { return WindowStats().n; }

void VarianceSketch::Serialize(SnapshotWriter* writer) const {
  writer->PutU64(window_size_);
  writer->PutDouble(epsilon_);
  writer->PutU64(now_);
  writer->PutU64(since_scan_);
  writer->PutU32(static_cast<uint32_t>(count_));
  uint64_t last = now_ - 1;
  for (size_t i = count_; i > 0; --i) {  // newest first
    const Stats& b = At(i - 1).bucket;
    const uint64_t first = last + 1 - static_cast<uint64_t>(b.n);
    writer->PutU64(first);
    writer->PutU64(last);
    writer->PutDouble(b.n);
    writer->PutDouble(b.mean);
    writer->PutDouble(b.var);
    last = first - 1;
  }
}

bool VarianceSketch::Restore(SnapshotReader* reader) {
  const uint64_t window_size = reader->TakeU64();
  const double epsilon = reader->TakeDouble();
  const uint64_t now = reader->TakeU64();
  const uint64_t since_scan = reader->TakeU64();
  const uint32_t count = reader->TakeU32();
  if (!reader->ok() || window_size != window_size_ || epsilon != epsilon_ ||
      count > std::min(window_size_, max_buckets_) ||
      (count == 0 ? now != 0 || since_scan != 0 : since_scan >= count)) {
    return false;
  }
  std::vector<Slot> ring(count);
  uint64_t next = now;  // arrival index just after the next bucket's last
  for (uint32_t i = count; i > 0; --i) {  // the wire order is newest first
    Stats& b = ring[i - 1].bucket;
    const uint64_t first = reader->TakeU64();
    const uint64_t last = reader->TakeU64();
    b.n = reader->TakeDouble();
    b.mean = reader->TakeDouble();
    b.var = reader->TakeDouble();
    if (!reader->ok() || first > last || last + 1 != next || !(b.n >= 1.0) ||
        b.n != static_cast<double>(last - first + 1)) {
      return false;
    }
    next = first;
  }
  // The oldest bucket must still be live: the last Add() expires a bucket
  // whose newest element is window_size or more arrivals old.
  if (count > 0 && now - (next + static_cast<uint64_t>(ring[0].bucket.n)) >=
                       window_size_) {
    return false;
  }

  // Refold the aggregates exactly as Scan() and Append() built them.
  const size_t front = count - since_scan;
  Stats suffix;
  for (size_t i = front; i-- > 0;) {
    suffix = i + 1 == front ? ring[i].bucket : Combine(suffix, ring[i].bucket);
    ring[i].suffix_mean = suffix.mean;
    ring[i].suffix_var = suffix.var;
  }
  Stats back;
  for (size_t i = front; i < count; ++i) {
    back = i == front ? ring[i].bucket : Combine(ring[i].bucket, back);
  }

  ring_.swap(ring);
  head_ = 0;
  count_ = count;
  oldest_first_ = next;
  front_n_ = suffix.n;
  back_ = back;
  now_ = now;
  since_scan_ = since_scan;
  return true;
}

size_t VarianceSketch::MemoryBytes(size_t bytes_per_number) const {
  return (count_ * 5 + 5) * bytes_per_number;
}

size_t VarianceSketch::TheoreticalBoundBytes(size_t bytes_per_number) const {
  return max_buckets_ * 5 * bytes_per_number;
}

}  // namespace sensord
