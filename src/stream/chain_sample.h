// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// Chain sampling: a uniform random sample over a count-based sliding window.
//
// This is the "chain-sample" component the paper lists in its prototype
// (Section 10, Implementation), following Babcock, Datar and Motwani,
// "Sampling From a Moving Window Over Streaming Data", SODA 2002. A sample of
// expected size |R| is maintained as |R| independent chains; each chain holds
// one *active* element that is uniformly distributed over the current window,
// plus the already-arrived future replacements that will take over when the
// active element expires. Expected memory per chain is O(1), so the whole
// sample costs O(d|R|) — the bound quoted in the paper's Theorem 1.
//
// Per-arrival cost is O(1 + changes) amortized, not O(|R|): the sampler
// indexes chains by the arrival positions they are waiting for (pending
// replacements and front expiries), and decides the Bernoulli(1/min(i+1,W))
// chain restarts by geometric skipping, so only the chains that actually
// change are touched. This is what lets the Figure 11 experiment simulate
// thousands of sensors.
//
// The Add() return value reports whether the new observation entered the
// sample: this is exactly the "if (S(i) included in R^w)" event of the D3 and
// MGDD pseudo-code (Figure 4), which gates probabilistic propagation of the
// observation to the parent node. Add() can also report every change it
// made to the active sample (SampleChanges), which lets a consumer keep a
// derived copy of the sample — core::DensityModel's canonically ordered
// buffer — up to date without re-reading all |R| chains.

#ifndef SENSORD_STREAM_CHAIN_SAMPLE_H_
#define SENSORD_STREAM_CHAIN_SAMPLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/flat_points.h"
#include "util/math_utils.h"
#include "util/rng.h"

namespace sensord {

class SnapshotReader;
class SnapshotWriter;

/// The active-sample changes one ChainSample::Add() made, in the order it
/// made them. Row k of `arrived` became a chain's active element; row k of
/// `departed` is the active element it displaced. A restart of a non-empty
/// chain reports head -> value and an expiry reports old front -> new
/// front, so after seeding the two hold the same number of rows. The
/// seeding Add() displaces nothing: `departed` stays empty and `arrived`
/// holds one row per chain.
struct SampleChanges {
  FlatPoints departed;
  FlatPoints arrived;
};

/// Uniform random sample (with replacement across chains) of the last
/// `window_size` stream elements, maintained in one pass.
class ChainSample {
 public:
  /// Creates a sample of `sample_size` chains over a window of
  /// `window_size` elements.
  /// Pre: sample_size > 0, window_size > 0.
  ChainSample(size_t sample_size, size_t window_size, Rng rng);

  /// Feeds the next stream element. Returns true iff the element became the
  /// active element of at least one chain (i.e. it "entered the sample").
  /// If `changes` is non-null it is refilled with the active-sample changes
  /// this call made; its warm buffers keep their capacity, so reporting
  /// allocates nothing in the steady state.
  bool Add(const Point& value, SampleChanges* changes = nullptr);

  /// Number of chains (the |R| of the paper).
  size_t sample_size() const { return chains_.size(); }

  /// Window length |W|.
  size_t window_size() const { return window_size_; }

  /// Total elements observed so far (plus the prewarm offset, if any).
  uint64_t total_seen() const { return now_; }

  /// True once the first element has been observed (the chains hold an
  /// active sample from then on).
  bool seeded() const { return seeded_; }

  /// Jumps the arrival clock to one full window, so that subsequent
  /// insertions happen at the steady-state probability 1/|W| instead of the
  /// elevated early-stream rate. Used by long-horizon message-cost
  /// experiments that measure steady-state traffic without simulating a
  /// full warm-up window first. Call before the first Add().
  void PrewarmToSteadyState();

  /// Monotone counter that increments whenever the *active* sample (the set
  /// returned by Snapshot) changes. Lets consumers cache derived structures
  /// (e.g. a kernel estimator) and rebuild only on change.
  uint64_t version() const { return version_; }

  /// A view of the current active element of chain `i`, valid until the
  /// next non-const call. Only meaningful once at least one element has
  /// been observed. Pre: i < sample_size().
  PointView ActiveElement(size_t i) const;

  /// Copies the current sample (one active element per chain).
  /// Empty before the first Add().
  std::vector<Point> Snapshot() const;

  /// Snapshot() into a caller-provided flat buffer, same chain-index order.
  /// `out` is Reset() to the stream's dimensionality and refilled; a warm
  /// buffer (capacity from a previous snapshot of the same sample) is
  /// refilled with zero heap allocations — the estimator-rebuild fast path
  /// (DESIGN.md §13). Empty (dimensions 0) before the first Add().
  void SnapshotTo(FlatPoints* out) const;

  /// Total stored elements across all chains (active + queued replacements).
  /// Expected O(sample_size); used by the memory-footprint experiment.
  size_t StoredElements() const;

  /// Approximate memory footprint of the stored sample in bytes, under the
  /// paper's Section 10.3 convention of `bytes_per_number` bytes per numeric
  /// value (the paper assumes a 16-bit architecture, i.e. 2).
  size_t MemoryBytes(size_t dimensions, size_t bytes_per_number) const;

  /// Heap bytes the sampler holds on this machine: the capacity of every
  /// buffer it owns (chains, row pool, pending index, scratch lists).
  size_t ResidentBytes() const;

  /// Entries in the pending index's pool, live or recycled: the most
  /// registrations it has held at once since construction or the last
  /// Restore() (the pool never shrinks). DESIGN.md §14 bounds it.
  size_t PendingPoolSize() const { return pending_.pool.size(); }

  /// Appends the complete sampler state (clock, rng, every chain with its
  /// queued replacements, and the pending-arrival maps with their bucket
  /// orders intact) to `writer`, for checkpoint/restore (core/snapshot.h).
  void Serialize(SnapshotWriter* writer) const;

  /// Overwrites this sampler with state previously written by Serialize().
  /// Returns false (leaving the sampler unspecified but safe to destroy or
  /// re-Restore) if the reader fails or the saved shape does not match this
  /// sampler's sample_size/window_size configuration. No rng draws occur
  /// and the pending buckets keep their recorded order, so a restored
  /// sampler continues the stream bit-for-bit.
  bool Restore(SnapshotReader* reader);

 private:
  static constexpr uint32_t kNilRow = ~uint32_t{0};

  // One chain: a FIFO of rows in the sampler-wide pool below; the head row
  // is the active sample element, later rows are replacements that have
  // already arrived, ordered by index. A chain owns no storage of its own —
  // it is three integers plus the pending-replacement index — so
  // constructing or tearing down a sampler costs O(1) allocations total
  // instead of one heap block per stored Point (the flat-memory layout of
  // DESIGN.md §13 applied to the stream store).
  struct Chain {
    uint32_t head = kNilRow;  // pool row of the active element
    uint32_t tail = kNilRow;  // pool row of the newest replacement
    uint32_t size = 0;
    uint64_t next_replacement_index = 0;  // index that extends the chain

    bool Empty() const { return size == 0; }
  };

  // Sampler-wide row pool: row r stores one element — its arrival position
  // in row_index_[r], its coordinates in
  // row_coords_[r * dims_, (r + 1) * dims_), and its FIFO successor in
  // row_next_ (which also threads the free list). Rows are recycled, so
  // after warm-up the pool performs zero heap allocations per stream
  // element.
  uint32_t AllocRow();
  void FreeRow(uint32_t row) {
    row_next_[row] = row_free_;
    row_free_ = row;
  }
  void ChainPushBack(Chain* chain, uint64_t index, const Point& value);
  void ChainPopFront(Chain* chain);
  uint64_t FrontIndex(const Chain& chain) const {
    return row_index_[chain.head];
  }
  const double* FrontCoords(const Chain& chain) const {
    return row_coords_.data() + static_cast<size_t>(chain.head) * dims_;
  }

  // Arrival index -> chains waiting for that index, for both registration
  // kinds (pending replacements and front expiries) in one structure so each
  // Add() resolves both with a single lookup. A compact chained hash ring:
  // `heads[key & mask]` starts a pool-backed singly linked list of
  // (key, chain, kind) registrations in insertion order; different keys may
  // share a slot. Per-key-and-kind insertion order — which decides which
  // chain draws its next replacement first, exactly like the unordered_map
  // bucket order this replaces — is the list order restricted to that key
  // and kind. Every arrival index is visited by Add() exactly once, which
  // consumes (and recycles) its entries. A restart unlinks the chain's
  // expiry registration (Remove) but leaves its replacement registration
  // stale: when the chain later redraws the same key, the stale entry's list
  // position decides the order of the rng draws, so removing it would change
  // the output (DESIGN.md §14). Consumers re-validate replacements against
  // the chain state. Live + stale entries number O(|R|), so the ring is
  // sized to the sample, not the window: construction and steady-state
  // churn touch a few KB instead of O(|W|) slots.
  struct PendingIndex {
    static constexpr uint32_t kNil = ~uint32_t{0};
    static constexpr uint32_t kExpiryBit = uint32_t{1} << 31;
    struct Entry {
      uint64_t key;
      uint32_t link;  // chain index, with kExpiryBit set for expiry entries
      uint32_t next;  // next entry in the same slot's list, kNil at tail
    };
    std::vector<uint32_t> heads;  // slot -> first entry, kNil when empty
    std::vector<uint32_t> tails;  // slot -> last entry (O(1) tail append)
    std::vector<Entry> pool;
    uint32_t free_head = kNil;  // free list threaded through pool[].next
    uint32_t mask = 0;          // heads.size() - 1 (power of two)

    explicit PendingIndex(size_t min_slots);
    void Register(uint64_t key, uint32_t chain_idx, bool expiry);
    // Unlinks and recycles the entry (key, link), if present.
    void Remove(uint64_t key, uint32_t link);
    // Moves every entry matching `key` into `replacements` / `expiries` by
    // kind (each in insertion order), unlinking and recycling them. Both
    // outputs are cleared first.
    void ConsumeBoth(uint64_t key, std::vector<uint32_t>* replacements,
                     std::vector<uint32_t>* expiries);
    void Clear();
    // One kind's buckets in the historical unordered_map wire format: bucket
    // count, then (key, chain list) per bucket with keys sorted ascending
    // and per-key insertion order verbatim.
    void Serialize(SnapshotWriter* writer, bool expiry) const;
    bool RestoreFrom(SnapshotReader* reader, uint32_t chain_count,
                     bool expiry);
  };

  // Restarts chain `c` at the element (index, value): the new element
  // becomes the active sample member, queued replacements are discarded,
  // the old front's expiry registration is unlinked, and the chain's expiry
  // and replacement are re-registered. The change is reported into
  // `changes` when it is non-null.
  void RestartChain(uint32_t chain_idx, uint64_t index, const Point& value,
                    SampleChanges* changes);

  // Draws and registers the pending replacement index of chain `chain_idx`
  // following the element at `index`.
  void DrawReplacement(uint32_t chain_idx, uint64_t index);

  // Registers chain `chain_idx`'s current front for expiry.
  void RegisterExpiry(uint32_t chain_idx);

  // Expected O(1) skip count of a run of Bernoulli(p) failures.
  uint64_t GeometricSkip(double p);

  size_t window_size_;
  std::vector<Chain> chains_;
  size_t dims_ = 0;  // coordinate stride; fixed by the first Add()/Restore()
  std::vector<uint64_t> row_index_;  // pool: arrival position per row
  std::vector<double> row_coords_;   // pool: row-major coordinates
  std::vector<uint32_t> row_next_;   // pool: FIFO successor / free-list link
  uint32_t row_free_ = kNilRow;      // head of the recycled-row free list
  Rng rng_;
  uint64_t now_ = 0;      // number of elements observed
  uint64_t version_ = 0;  // bumped when the active sample changes
  bool seeded_ = false;

  PendingIndex pending_;
  std::vector<uint32_t> scratch_replacements_;  // reused ConsumeBoth() output
  std::vector<uint32_t> scratch_expiries_;      // reused ConsumeBoth() output
};

}  // namespace sensord

#endif  // SENSORD_STREAM_CHAIN_SAMPLE_H_
