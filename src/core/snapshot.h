// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// Versioned, checksummed snapshots of volatile node state.
//
// The crash-recovery subsystem (DESIGN.md §10) persists each node's model
// state to the simulator's per-node "flash" on a virtual-time checkpoint
// cadence, so an amnesia restart resumes from the last checkpoint instead
// of a cold model. Shylendra et al. ("Low Power Unsupervised Anomaly
// Detection by Non-Parametric Modeling of Sensor Statistics") make the case
// that exactly this state — a bounded sample plus a few sketch scalars — is
// small enough to persist cheaply on a mote.
//
// The encoding is deliberately primitive: little-endian fixed-width fields
// appended in the order the owning component's Serialize() writes them, so a
// snapshot is decodable only by the matching Restore() at the matching
// payload version. What makes it safe is the frame added by Finish() and
// verified by Open():
//
//   magic 'SNSD' | format version | payload version | payload length
//   | payload bytes | FNV-1a(64) over everything before the checksum
//
// A snapshot that fails magic, version, length or checksum validation is
// rejected as a whole (Open returns an error) and the node falls back to a
// cold restart — a torn flash write must never half-restore a model.
//
// Determinism note: Serialize() implementations must never iterate an
// unordered container into the writer (sensord_lint's determinism-unordered
// rule treats Put*/Serialize as sinks). Components whose bookkeeping lives
// in hash maps (e.g. ChainSample's pending indices) serialize their ordered
// ground truth and rebuild the maps in Restore().
//
// The writer/reader accessors are header-inline so that the components
// being serialized (stream/, stats/) can use them without linking against
// sensord_core; only the framing (Finish/Open), which the node-level
// SaveState/RestoreState implementations in core/ call, lives in
// snapshot.cc.

#ifndef SENSORD_CORE_SNAPSHOT_H_
#define SENSORD_CORE_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/math_utils.h"
#include "util/rng.h"
#include "util/status.h"

namespace sensord {

/// Appends fixed-width little-endian fields to a byte buffer; Finish()
/// frames the payload with magic, versions, length and checksum.
class SnapshotWriter {
 public:
  SnapshotWriter() = default;

  void PutU8(uint8_t v) { bytes_.push_back(v); }

  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  void PutDouble(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }

  void PutPoint(const Point& p) {
    PutU32(static_cast<uint32_t>(p.size()));
    for (double c : p) PutDouble(c);
  }

  void PutDoubles(const std::vector<double>& v) {
    PutU32(static_cast<uint32_t>(v.size()));
    for (double x : v) PutDouble(x);
  }

  void PutRng(const Rng& rng) {
    const Rng::State state = rng.SaveState();
    for (uint64_t word : state.s) PutU64(word);
    PutBool(state.has_cached_gaussian);
    PutDouble(state.cached_gaussian);
  }

  /// Payload bytes written so far (pre-framing), for size accounting.
  size_t size() const { return bytes_.size(); }

  /// Frames the payload and returns the complete snapshot. The writer is
  /// consumed. `payload_version` identifies the owning component's layout;
  /// Open() rejects a mismatch.
  std::vector<uint8_t> Finish(uint32_t payload_version) &&;

 private:
  std::vector<uint8_t> bytes_;
};

/// Reads fields in the order they were written. Construction via Open()
/// validates the frame (magic, versions, length, checksum); after that a
/// read past the payload end trips the reader into the failed state (reads
/// return zero values) rather than touching out-of-bounds memory — callers
/// check ok() once after the last Take.
class SnapshotReader {
 public:
  /// Validates `snapshot`'s frame and positions the reader at the start of
  /// the payload. Returns InvalidArgument on any mismatch (truncated frame,
  /// bad magic, unknown format version, payload version != expected, length
  /// inconsistency, checksum failure).
  static StatusOr<SnapshotReader> Open(const std::vector<uint8_t>& snapshot,
                                       uint32_t expected_payload_version);

  uint8_t TakeU8() {
    if (!Need(1)) return 0;
    return data_[pos_++];
  }

  uint32_t TakeU32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(data_[pos_++]) << (8 * i);
    }
    return v;
  }

  uint64_t TakeU64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
    }
    return v;
  }

  bool TakeBool() { return TakeU8() != 0; }

  double TakeDouble() {
    const uint64_t bits = TakeU64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  Point TakePoint() {
    const uint32_t n = TakeU32();
    if (!Need(static_cast<size_t>(n) * 8)) return {};
    Point p;
    p.reserve(n);
    for (uint32_t i = 0; i < n; ++i) p.push_back(TakeDouble());
    return p;
  }

  std::vector<double> TakeDoubles() {
    const uint32_t n = TakeU32();
    if (!Need(static_cast<size_t>(n) * 8)) return {};
    std::vector<double> v;
    v.reserve(n);
    for (uint32_t i = 0; i < n; ++i) v.push_back(TakeDouble());
    return v;
  }

  Rng TakeRng() {
    Rng::State state;
    for (uint64_t& word : state.s) word = TakeU64();
    state.has_cached_gaussian = TakeBool();
    state.cached_gaussian = TakeDouble();
    Rng rng;
    rng.LoadState(state);
    return rng;
  }

  /// True iff no read overran the payload so far.
  bool ok() const { return ok_; }

  /// True once every payload byte has been consumed (and ok()).
  bool AtEnd() const { return ok_ && pos_ == end_; }

 private:
  SnapshotReader(const uint8_t* data, size_t pos, size_t end)
      : data_(data), pos_(pos), end_(end) {}

  bool Need(size_t n) {
    if (!ok_ || end_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const uint8_t* data_;  // not owned; the snapshot outlives the reader
  size_t pos_;
  size_t end_;
  bool ok_ = true;
};

/// FNV-1a (64-bit) over `bytes` — the snapshot frame checksum. Exposed for
/// tests that corrupt frames deliberately.
uint64_t SnapshotChecksum(const uint8_t* bytes, size_t size);

}  // namespace sensord

#endif  // SENSORD_CORE_SNAPSHOT_H_
