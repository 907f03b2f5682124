#include "stream/chain_sample.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace sensord {
namespace {

// Cached metric handles (see obs/metrics.h): the registry lookup runs once
// per process; per-event cost is one integer add.
struct ChainSampleMetrics {
  obs::Counter* adds;          // stream elements observed
  obs::Counter* restarts;      // chains restarted at a fresh element
  obs::Counter* replacements;  // queued replacement arrivals appended
  obs::Counter* expirations;   // active elements promoted out on expiry
  obs::Histogram* add_ns;      // window-advance latency (timing-gated)
};

const ChainSampleMetrics& Metrics() {
  auto& registry = obs::MetricsRegistry::Global();
  static const ChainSampleMetrics m{
      registry.GetCounter("stream.chain_sample.adds"),
      registry.GetCounter("stream.chain_sample.restarts"),
      registry.GetCounter("stream.chain_sample.replacements"),
      registry.GetCounter("stream.chain_sample.expirations"),
      registry.GetHistogram("stream.chain_sample.add_ns",
                            obs::LatencyBoundariesNs())};
  return m;
}

}  // namespace

uint32_t ChainSample::AllocRow() {
  if (row_free_ != kNilRow) {
    const uint32_t r = row_free_;
    row_free_ = row_next_[r];
    return r;
  }
  const uint32_t r = static_cast<uint32_t>(row_index_.size());
  row_index_.emplace_back();
  row_next_.emplace_back();
  row_coords_.resize(row_coords_.size() + dims_);
  return r;
}

void ChainSample::ChainPushBack(Chain* chain, uint64_t index,
                                const Point& value) {
  SENSORD_DCHECK_EQ(value.size(), dims_);
  const uint32_t r = AllocRow();
  row_index_[r] = index;
  std::copy(value.begin(), value.end(),
            row_coords_.begin() + static_cast<size_t>(r) * dims_);
  row_next_[r] = kNilRow;
  if (chain->Empty()) {
    chain->head = r;
  } else {
    row_next_[chain->tail] = r;
  }
  chain->tail = r;
  ++chain->size;
}

void ChainSample::ChainPopFront(Chain* chain) {
  SENSORD_DCHECK(!chain->Empty());
  const uint32_t r = chain->head;
  chain->head = row_next_[r];
  --chain->size;
  if (chain->Empty()) chain->tail = kNilRow;
  FreeRow(r);
}

ChainSample::PendingIndex::PendingIndex(size_t min_slots) {
  size_t size = 64;
  while (size < min_slots) size <<= 1;
  heads.assign(size, kNil);
  tails.assign(size, kNil);
  mask = static_cast<uint32_t>(size - 1);
}

void ChainSample::PendingIndex::Register(uint64_t key, uint32_t chain_idx,
                                         bool expiry) {
  uint32_t e;
  if (free_head != kNil) {
    e = free_head;
    free_head = pool[e].next;
  } else {
    e = static_cast<uint32_t>(pool.size());
    pool.emplace_back();
  }
  pool[e] = Entry{key, expiry ? (chain_idx | kExpiryBit) : chain_idx, kNil};
  const uint32_t slot = static_cast<uint32_t>(key) & mask;
  if (heads[slot] == kNil) {
    heads[slot] = e;
  } else {
    pool[tails[slot]].next = e;
  }
  tails[slot] = e;
}

void ChainSample::PendingIndex::Remove(uint64_t key, uint32_t link) {
  const uint32_t slot = static_cast<uint32_t>(key) & mask;
  uint32_t prev = kNil;
  for (uint32_t e = heads[slot]; e != kNil; prev = e, e = pool[e].next) {
    if (pool[e].key != key || pool[e].link != link) continue;
    if (prev == kNil) {
      heads[slot] = pool[e].next;
    } else {
      pool[prev].next = pool[e].next;
    }
    if (tails[slot] == e) tails[slot] = prev;
    pool[e].next = free_head;
    free_head = e;
    return;
  }
}

void ChainSample::PendingIndex::ConsumeBoth(
    uint64_t key, std::vector<uint32_t>* replacements,
    std::vector<uint32_t>* expiries) {
  replacements->clear();
  expiries->clear();
  const uint32_t slot = static_cast<uint32_t>(key) & mask;
  uint32_t* link = &heads[slot];
  uint32_t last_kept = kNil;
  while (*link != kNil) {
    Entry& entry = pool[*link];
    if (entry.key == key) {
      if ((entry.link & kExpiryBit) != 0) {
        expiries->push_back(entry.link & ~kExpiryBit);
      } else {
        replacements->push_back(entry.link);
      }
      const uint32_t dead = *link;
      *link = entry.next;
      pool[dead].next = free_head;
      free_head = dead;
    } else {
      last_kept = *link;
      link = &entry.next;
    }
  }
  tails[slot] = last_kept;
}

void ChainSample::PendingIndex::Clear() {
  heads.assign(heads.size(), kNil);
  tails.assign(tails.size(), kNil);
  pool.clear();
  free_head = kNil;
}

ChainSample::ChainSample(size_t sample_size, size_t window_size, Rng rng)
    : window_size_(window_size),
      chains_(sample_size),
      rng_(rng),
      pending_(4 * sample_size) {
  SENSORD_CHECK_GT(sample_size, 0u);
  SENSORD_CHECK_GT(window_size, 0u);
}

void ChainSample::PrewarmToSteadyState() {
  SENSORD_CHECK(!seeded_ && "prewarm must precede the first Add()");
  now_ = window_size_;
}

void ChainSample::DrawReplacement(uint32_t chain_idx, uint64_t index) {
  // The replacement is drawn uniformly from the W indices following `index`;
  // it arrives no later than the active element expires, so a warmed-up
  // chain is never empty.
  const uint64_t r = index + 1 + rng_.UniformUint64(window_size_);
  chains_[chain_idx].next_replacement_index = r;
  pending_.Register(r, chain_idx, /*expiry=*/false);
}

void ChainSample::RegisterExpiry(uint32_t chain_idx) {
  const Chain& chain = chains_[chain_idx];
  SENSORD_DCHECK(!chain.Empty());
  pending_.Register(FrontIndex(chain) + window_size_, chain_idx,
                    /*expiry=*/true);
}

void ChainSample::RestartChain(uint32_t chain_idx, uint64_t index,
                               const Point& value, SampleChanges* changes) {
  Metrics().restarts->Increment();
  ++version_;
  Chain& chain = chains_[chain_idx];
  // The head row, if any, is overwritten in place rather than freed and
  // re-allocated: restarts are by far the most frequent chain mutation, and
  // most chains hold only their active element when one hits.
  if (chain.Empty()) {
    ChainPushBack(&chain, index, value);
  } else {
    SENSORD_DCHECK_EQ(value.size(), dims_);
    // The old front's expiry would only be skipped when its key comes due,
    // up to |W| arrivals later; unlink it now (DESIGN.md §14). Expiries draw
    // no randomness and touch only their own chain, so this changes no
    // state. The orphaned replacement registration stays: its list position
    // orders the rng draws if the chain redraws the same key.
    pending_.Remove(FrontIndex(chain) + window_size_,
                    chain_idx | PendingIndex::kExpiryBit);
    if (changes != nullptr) {
      const double* head = FrontCoords(chain);
      std::copy(head, head + dims_, changes->departed.AppendRow());
    }
    for (uint32_t r = row_next_[chain.head]; r != kNilRow;) {
      const uint32_t next = row_next_[r];
      FreeRow(r);
      r = next;
    }
    const uint32_t head = chain.head;
    row_index_[head] = index;
    std::copy(value.begin(), value.end(),
              row_coords_.begin() + static_cast<size_t>(head) * dims_);
    row_next_[head] = kNilRow;
    chain.tail = head;
    chain.size = 1;
  }
  if (changes != nullptr) {
    std::copy(value.begin(), value.end(), changes->arrived.AppendRow());
  }
  RegisterExpiry(chain_idx);
  DrawReplacement(chain_idx, index);
}

uint64_t ChainSample::GeometricSkip(double p) {
  // Number of Bernoulli(p) failures before the next success.
  SENSORD_DCHECK_GT(p, 0.0);
  SENSORD_DCHECK_LE(p, 1.0);
  if (p >= 1.0) return 0;
  double u = rng_.UniformDouble();
  if (u <= 0.0) u = 1e-300;  // UniformDouble is in [0,1); guard underflow
  return static_cast<uint64_t>(std::log(u) / std::log1p(-p));
}

bool ChainSample::Add(const Point& value, SampleChanges* changes) {
  const obs::ScopedTimer timer(Metrics().add_ns);
  Metrics().adds->Increment();
  const uint64_t i = now_;  // 0-based arrival index of this element
  ++now_;

  // The first element ever observed seeds every chain; it also fixes the
  // stream's dimensionality, which sizes the row pool's coordinate stride.
  if (!seeded_) dims_ = value.size();
  if (changes != nullptr) {
    changes->departed.Reset(dims_);
    changes->arrived.Reset(dims_);
  }
  if (!seeded_) {
    for (uint32_t c = 0; c < chains_.size(); ++c) {
      RestartChain(c, i, value, changes);
    }
    seeded_ = true;
    return true;
  }

  // Detach this arrival's registrations of both kinds in one lookup; the
  // re-registrations below (always for keys > i) cannot perturb the
  // detached lists.
  pending_.ConsumeBoth(i, &scratch_replacements_, &scratch_expiries_);

  // 1. Chains whose pending replacement is this element: append it and draw
  //    the next replacement.
  for (const uint32_t c : scratch_replacements_) {
    Chain& chain = chains_[c];
    if (chain.next_replacement_index != i) continue;  // stale (restarted)
    ChainPushBack(&chain, i, value);
    Metrics().replacements->Increment();
    DrawReplacement(c, i);
  }

  // 2. Chains whose active element expires now: promote the next entry.
  for (const uint32_t c : scratch_expiries_) {
    Chain& chain = chains_[c];
    if (chain.Empty() || FrontIndex(chain) + window_size_ != i) {
      continue;  // dead: only restored older checkpoints carry these
    }
    if (changes != nullptr) {
      const double* front = FrontCoords(chain);
      std::copy(front, front + dims_, changes->departed.AppendRow());
    }
    ChainPopFront(&chain);
    SENSORD_CHECK(!chain.Empty() &&
                  "chain invariant: replacement arrives before expiry");
    if (changes != nullptr) {
      const double* front = FrontCoords(chain);
      std::copy(front, front + dims_, changes->arrived.AppendRow());
    }
    Metrics().expirations->Increment();
    ++version_;  // the chain's active element changed
    RegisterExpiry(c);
  }

  // 3. Restart each chain at this element independently with probability
  //    1/min(i+1, W) — how fresh observations enter the sample uniformly.
  //    Geometric skipping touches only the chains that restart.
  const uint64_t denom = std::min<uint64_t>(i + 1, window_size_);
  const double p_select = 1.0 / static_cast<double>(denom);
  bool entered_sample = false;
  uint64_t c = GeometricSkip(p_select);
  while (c < chains_.size()) {
    RestartChain(static_cast<uint32_t>(c), i, value, changes);
    entered_sample = true;
    c += 1 + GeometricSkip(p_select);
  }
  return entered_sample;
}

PointView ChainSample::ActiveElement(size_t i) const {
  SENSORD_DCHECK_LT(i, chains_.size());
  SENSORD_DCHECK(!chains_[i].Empty());
  return PointView(FrontCoords(chains_[i]), dims_);
}

std::vector<Point> ChainSample::Snapshot() const {
  std::vector<Point> out;
  out.reserve(chains_.size());
  for (const Chain& chain : chains_) {
    if (!chain.Empty()) {
      const double* coords = FrontCoords(chain);
      out.emplace_back(coords, coords + dims_);
    }
  }
  return out;
}

void ChainSample::SnapshotTo(FlatPoints* out) const {
  out->Reset(seeded_ ? dims_ : 0);
  if (!seeded_) return;
  out->Reserve(chains_.size());
  for (const Chain& chain : chains_) {
    if (chain.Empty()) continue;
    const double* coords = FrontCoords(chain);
    std::copy(coords, coords + dims_, out->AppendRow());
  }
}

size_t ChainSample::StoredElements() const {
  size_t n = 0;
  for (const Chain& chain : chains_) n += chain.size;
  return n;
}

void ChainSample::PendingIndex::Serialize(SnapshotWriter* writer,
                                          bool expiry) const {
  // Gather this kind's (key, chain) pairs slot by slot. Within one slot the
  // list holds a key's registrations in insertion order (tail appends), so a
  // stable sort by key yields every bucket with its insertion order intact.
  std::vector<std::pair<uint64_t, uint32_t>> entries;
  for (const uint32_t head : heads) {
    for (uint32_t e = head; e != kNil; e = pool[e].next) {
      if (((pool[e].link & kExpiryBit) != 0) != expiry) continue;
      entries.emplace_back(pool[e].key, pool[e].link & ~kExpiryBit);
    }
  }
  std::stable_sort(
      entries.begin(), entries.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  uint32_t buckets = 0;
  for (size_t n = 0; n < entries.size(); ++n) {
    if (n == 0 || entries[n].first != entries[n - 1].first) ++buckets;
  }
  writer->PutU32(buckets);
  for (size_t n = 0; n < entries.size();) {
    const uint64_t key = entries[n].first;
    size_t end = n;
    while (end < entries.size() && entries[end].first == key) ++end;
    writer->PutU64(key);
    writer->PutU32(static_cast<uint32_t>(end - n));
    for (; n < end; ++n) writer->PutU32(entries[n].second);
  }
}

bool ChainSample::PendingIndex::RestoreFrom(SnapshotReader* reader,
                                            uint32_t chain_count,
                                            bool expiry) {
  const uint32_t buckets = reader->TakeU32();
  for (uint32_t b = 0; b < buckets; ++b) {
    const uint64_t key = reader->TakeU64();
    const uint32_t size = reader->TakeU32();
    if (!reader->ok()) return false;
    for (uint32_t e = 0; e < size; ++e) {
      const uint32_t c = reader->TakeU32();
      if (c >= chain_count) return false;
      Register(key, c, expiry);  // tail append keeps the bucket order
    }
  }
  return reader->ok();
}

void ChainSample::Serialize(SnapshotWriter* writer) const {
  writer->PutU64(window_size_);
  writer->PutU64(now_);
  writer->PutU64(version_);
  writer->PutBool(seeded_);
  writer->PutRng(rng_);
  writer->PutU32(static_cast<uint32_t>(chains_.size()));
  for (const Chain& chain : chains_) {
    writer->PutU64(chain.next_replacement_index);
    writer->PutU32(chain.size);
    // Each pool row is written in PutPoint's exact wire format (u32
    // dimension prefix + coordinates), so snapshots stay byte-identical to
    // the per-entry Point era.
    for (uint32_t r = chain.head; r != kNilRow; r = row_next_[r]) {
      writer->PutU64(row_index_[r]);
      writer->PutU32(static_cast<uint32_t>(dims_));
      const double* coords =
          row_coords_.data() + static_cast<size_t>(r) * dims_;
      for (size_t k = 0; k < dims_; ++k) writer->PutDouble(coords[k]);
    }
  }
  // The pending indexes must be written verbatim, not re-derived from the
  // chain state: when several chains wait on the same arrival index, the
  // bucket's vector order decides which chain draws its next replacement
  // first, and that assignment must survive a restore for the continuation
  // to be bit-identical. Keys are emitted sorted so the encoding is
  // deterministic. Stale replacement registrations are written too — their
  // positions order future rng draws — while dead expiries are already
  // unlinked. Restore() still accepts payloads that carry dead expiries:
  // Add() skips them without touching the rng.
  pending_.Serialize(writer, /*expiry=*/false);
  pending_.Serialize(writer, /*expiry=*/true);
}

bool ChainSample::Restore(SnapshotReader* reader) {
  const uint64_t window_size = reader->TakeU64();
  const uint64_t now = reader->TakeU64();
  const uint64_t version = reader->TakeU64();
  const bool seeded = reader->TakeBool();
  Rng rng = reader->TakeRng();
  const uint32_t chain_count = reader->TakeU32();
  if (!reader->ok() || window_size != window_size_ ||
      chain_count != chains_.size()) {
    return false;
  }
  now_ = now;
  version_ = version;
  seeded_ = seeded;
  rng_ = rng;
  // Reset the row pool wholesale; the stride re-derives from the first
  // restored point (every point must agree, or the payload is rejected).
  row_index_.clear();
  row_coords_.clear();
  row_next_.clear();
  row_free_ = kNilRow;
  dims_ = 0;
  bool dims_known = false;
  for (uint32_t c = 0; c < chain_count; ++c) {
    Chain& chain = chains_[c];
    chain = Chain{};
    chain.next_replacement_index = reader->TakeU64();
    const uint32_t entry_count = reader->TakeU32();
    for (uint32_t e = 0; e < entry_count; ++e) {
      const uint64_t index = reader->TakeU64();
      const Point value = reader->TakePoint();
      if (!reader->ok()) return false;
      if (!dims_known) {
        dims_ = value.size();
        dims_known = true;
      }
      if (value.size() != dims_) return false;
      ChainPushBack(&chain, index, value);
    }
    if (seeded_ && chain.Empty()) return false;
  }
  pending_.Clear();
  if (!pending_.RestoreFrom(reader, chain_count, /*expiry=*/false) ||
      !pending_.RestoreFrom(reader, chain_count, /*expiry=*/true)) {
    return false;
  }
  return reader->ok();
}

size_t ChainSample::ResidentBytes() const {
  return chains_.capacity() * sizeof(Chain) +
         row_index_.capacity() * sizeof(uint64_t) +
         row_coords_.capacity() * sizeof(double) +
         row_next_.capacity() * sizeof(uint32_t) +
         (pending_.heads.capacity() + pending_.tails.capacity()) *
             sizeof(uint32_t) +
         pending_.pool.capacity() * sizeof(PendingIndex::Entry) +
         (scratch_replacements_.capacity() + scratch_expiries_.capacity()) *
             sizeof(uint32_t);
}

size_t ChainSample::MemoryBytes(size_t dimensions,
                                size_t bytes_per_number) const {
  // Each stored entry keeps d coordinates plus one index; each chain keeps
  // one pending replacement index.
  const size_t numbers =
      StoredElements() * (dimensions + 1) + chains_.size();
  return numbers * bytes_per_number;
}

}  // namespace sensord
