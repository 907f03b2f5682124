// Closed-loop perf driver of the sensord benchmark (see README.md here).
//
// One process runs one workload. It pre-generates every leaf's readings from
// --seed (untimed), sets the simulator up several times (each set-up timed,
// all but the last discarded), runs untimed warm-up rounds, then times one
// Simulator::RunUntil(r + 0.5) per round r — every leaf takes exactly one
// reading per round, the paper's one reading per second per sensor — until
// --seconds have been measured, in whole blocks of rounds (or exactly
// --rounds rounds). One driver thread, one outstanding round. Afterwards it
// checks the run's outputs (Theorem-3 containment, ingest count, detection
// quality against exact ground truth) and prints one JSON object on stdout;
// run.py derives the metrics from it.
//
// --trace additionally turns on the library's latency timers
// (obs::SetTimingEnabled), times the harness's own reading source and
// observer per round, probes the layers that have no timer on a live leaf,
// and writes the in-memory span log as JSONL (--spans).
//
// --smoke runs every workload at a tiny size, untraced and traced, and exits
// non-zero unless all correctness gates hold and both runs agree.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/d3.h"
#include "core/distance_outlier.h"
#include "core/mdef.h"
#include "core/mgdd.h"
#include "data/synthetic.h"
#include "eval/ground_truth.h"
#include "net/hierarchy.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/kde.h"
#include "util/check.h"
#include "util/flat_points.h"
#include "util/rng.h"

namespace sensord::perf {
namespace {

enum class Detector { kD3, kMgdd };

// One benchmark workload. Why each exists is recorded in README.md and
// BENCHMARK.json; the sizes are the paper's where it gives them.
struct Workload {
  const char* name = "";
  Detector detector = Detector::kD3;
  size_t dimensions = 1;
  size_t leaves = 0;
  size_t window = 0;      // |W| of the leaf models
  size_t sample = 0;      // |R|
  double fraction = 0.0;  // f
  bool detect = true;     // false: fig11's traffic-only run (no outlier tests)
  double link_drop = 0.0;  // default-link drop probability; > 0 turns on
                           // the reliable transport
  // Timed rounds of pre-generated readings; longer runs take them again from
  // the start, which keeps the input array small however long a run is.
  size_t input_rounds = 0;
};

constexpr size_t kFanout = 4;
// Untimed rounds after the windows fill: max_estimator_age, so every cached
// estimator has been through its rebuild cycle before the clock starts.
constexpr size_t kSettleRounds = 256;
// Timed rounds are measured in blocks of kBlockRounds (p99 keeps >= 10
// rounds beyond it within a block); a timed run is a whole number of blocks
// and every timing metric is the median over its blocks, so that a stretch
// of the run slowed by the rest of the machine moves a few blocks, not the
// result.
constexpr size_t kBlockRounds = 1000;
// Set-up repeats at least kMinSetups times and until kSetupBudgetNs of
// set-up time has accumulated (at most kMaxSetups times).
constexpr size_t kMinSetups = 5;
constexpr size_t kMaxSetups = 20001;
constexpr uint64_t kSetupBudgetNs = 250'000'000;
constexpr size_t kScoredRounds = 2000;
constexpr size_t kProbeReadings = 2000;
constexpr int kProbePasses = 5;
constexpr int kCreateProbes = 50;

const Workload kWorkloads[] = {
    {"d3_1d", Detector::kD3, 1, 128, 10000, 500, 0.5, true, 0.0, 20000},
    {"mgdd_2d", Detector::kMgdd, 2, 16, 4096, 512, 0.5, true, 0.0, 20000},
    // fig11's 768-sensor network (f = 0.25, |R| = |W|/10) with a window
    // short enough to fill before the clock starts: fig11's own |W| = 10240
    // would leave every timed round in the warm-up regime, where the chains
    // only grow and round times drift with the run's length. D3, not MGDD:
    // at fig11's sizes MGDD's root changes its sample a few times per run
    // and each change fans out to every node, so its traffic and round times
    // would follow a Poisson count of a few events. Not fig11's 3072 leaves
    // either: that 280 MB working set outgrows the shared last-level cache
    // and its runs spread 8-14% with the machine's load.
    {"traffic_768", Detector::kD3, 1, 768, 1024, 102, 0.25, false, 0.0,
     8000},
    {"d3_lossy", Detector::kD3, 1, 64, 10000, 500, 0.5, true, 0.2, 20000},
};

// Leaves start testing values once their window is full — "experiments use
// one full window" (D3Options::min_observations) — so the untimed warm-up
// fills the windows without paying for detection on half-built models.
size_t WarmupRounds(const Workload& w) { return w.window + kSettleRounds; }

// The detection criteria of every workload: the paper's (45, 0.01)
// distance outliers and MDEF r = 0.08, alpha*r = 0.01 with the benches'
// k_sigma = 1 (see bench/fig07_accuracy_1d.cc).
DistanceOutlierConfig D3Criterion(const Workload& w) {
  DistanceOutlierConfig c;
  // Scaled with |W| so the tiny smoke windows still flag the planted noise.
  c.neighbor_threshold =
      std::max(2.0, 45.0 * static_cast<double>(w.window) / 10000.0);
  return c;
}

MdefConfig MdefCriterion() {
  MdefConfig c;
  c.sampling_radius = 0.08;
  c.counting_radius = 0.01;
  c.k_sigma = 1.0;
  return c;
}

// The paper's mixture stream for leaf `leaf`, with the component means fixed
// by the leaf's index: dimension d cycles through the 27 ordered draws from
// the mean pool with stride 1 + 4d. Every seed then runs the same mix of
// leaf distributions — the seed picks each leaf's stream, the first split
// of `rng` that drew those means — so run-to-run differences in query cost
// come from the code and the machine, not from how many leaves happened to
// draw wide mixtures.
SyntheticMixtureStream LeafStream(size_t dimensions, size_t leaf, Rng* rng) {
  SyntheticOptions so;
  so.dimensions = dimensions;
  for (;;) {
    SyntheticMixtureStream stream(so, rng->Split());
    bool match = true;
    for (size_t d = 0; d < dimensions && match; ++d) {
      const size_t code = leaf * (1 + 4 * d) % 27;
      const std::array<double, 3>& means = stream.ComponentMeans(d);
      match = means[0] == so.mean_pool[code / 9] &&
              means[1] == so.mean_pool[code / 3 % 3] &&
              means[2] == so.mean_pool[code % 3];
    }
    if (match) return stream;
  }
}

// Timed rounds of a smoke run: more than Tiny's input rounds, so the smoke
// test covers the inputs' wrap-around too.
constexpr size_t kSmokeRounds = 150;

// A tiny copy of `w` for the smoke test: same code paths, seconds not
// minutes.
Workload Tiny(const Workload& w) {
  Workload t = w;
  t.leaves = 16;
  t.window = 300;
  t.sample = 30;
  t.input_rounds = 100;
  return t;
}

// ---------------------------------------------------------------- harness

// Time the harness itself spends inside a round (traced runs only).
struct HarnessTally {
  bool timing = false;
  uint64_t source_ns = 0;
  uint64_t source_calls = 0;
  uint64_t observer_ns = 0;
  uint64_t observer_calls = 0;
};

// All pre-generated readings, round-major ([round][leaf][dim]), so the
// round's ticks — which fire in leaf order — read memory sequentially.
// Rounds past the end wrap to the start; the array holds more rounds than a
// window, so no window ever sees one reading twice.
struct Inputs {
  size_t leaves = 0;
  size_t dims = 0;
  size_t rounds = 0;
  std::vector<double> values;

  const double* At(size_t round, size_t leaf) const {
    return values.data() + ((round % rounds) * leaves + leaf) * dims;
  }
};

// One leaf's view of the inputs, handed out one reading per periodic tick.
struct LeafFeed {
  const Inputs* inputs = nullptr;
  size_t leaf = 0;
  size_t next = 0;
  HarnessTally* tally = nullptr;

  Point Next() {
    const uint64_t t0 = tally->timing ? obs::MonotonicNowNs() : 0;
    const double* row = inputs->At(next, leaf);
    ++next;
    Point p(row, row + inputs->dims);
    if (tally->timing) {
      tally->source_ns += obs::MonotonicNowNs() - t0;
      ++tally->source_calls;
    }
    return p;
  }
};

struct Detection {
  NodeId node = 0;
  NodeId leaf = 0;
  uint64_t seq = 0;
  auto operator<=>(const Detection&) const = default;
};

// The benchmark's observer: records every flagged (node, leaf, seq).
class DetectionLog : public OutlierObserver {
 public:
  explicit DetectionLog(HarnessTally* tally) : tally_(tally) {}

  void OnOutlierDetected(const OutlierEvent& event) override {
    const uint64_t t0 = tally_->timing ? obs::MonotonicNowNs() : 0;
    keys_.push_back({event.node, event.source_leaf, event.source_seq});
    if (tally_->timing) {
      tally_->observer_ns += obs::MonotonicNowNs() - t0;
      ++tally_->observer_calls;
    }
  }

  std::vector<Detection>& keys() { return keys_; }

 private:
  HarnessTally* tally_;
  std::vector<Detection> keys_;
};

// One span of the traced run, kept in memory until the run ends. Child
// spans that aggregate many short calls carry calls/busy_ns.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  const char* parent = nullptr;  // parent span's name (same id), or nullptr
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t calls = 0;
  uint64_t busy_ns = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled)
      : enabled_(enabled), origin_ns_(obs::MonotonicNowNs()) {}

  uint64_t Now() const { return obs::MonotonicNowNs() - origin_ns_; }

  void Add(const char* name, uint64_t id, uint64_t start_ns, uint64_t end_ns,
           const char* parent = nullptr, uint64_t calls = 0,
           uint64_t busy_ns = 0) {
    if (enabled_) {
      spans_.push_back({name, id, parent, start_ns, end_ns, calls, busy_ns});
    }
  }

  void Reserve(size_t n) {
    if (enabled_) spans_.reserve(n);
  }

  bool WriteJsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f, "{\"name\":\"%s\",\"id\":%" PRIu64, s.name, s.id);
      if (s.parent != nullptr) {
        std::fprintf(f, ",\"parent\":\"%s\",\"parent_id\":%" PRIu64,
                     s.parent, s.id);
      }
      std::fprintf(f, ",\"start_ns\":%" PRIu64 ",\"end_ns\":%" PRIu64,
                   s.start_ns, s.end_ns);
      if (s.calls > 0) {
        std::fprintf(f, ",\"calls\":%" PRIu64 ",\"busy_ns\":%" PRIu64,
                     s.calls, s.busy_ns);
      }
      std::fprintf(f, "}\n");
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  uint64_t origin_ns_;
  std::vector<Span> spans_;
};

// Registry readings: counters by name, histograms as "<name>.sum" and
// "<name>.count".
std::map<std::string, double> ReadRegistry() {
  std::map<std::string, double> out;
  for (const obs::MetricSnapshot& m :
       obs::MetricsRegistry::Global().Snapshot()) {
    switch (m.kind) {
      case obs::MetricKind::kCounter:
        out[m.name] = static_cast<double>(m.counter_value);
        break;
      case obs::MetricKind::kHistogram:
        out[m.name + ".sum"] = m.hist_sum;
        out[m.name + ".count"] = static_cast<double>(m.hist_count);
        break;
      case obs::MetricKind::kGauge:
        break;
    }
  }
  return out;
}

std::map<std::string, double> Delta(const std::map<std::string, double>& from,
                                    const std::map<std::string, double>& to) {
  std::map<std::string, double> out;
  for (const auto& [name, value] : to) {
    const auto it = from.find(name);
    out[name] = value - (it == from.end() ? 0.0 : it->second);
  }
  return out;
}

double Get(const std::map<std::string, double>& m, const std::string& name) {
  const auto it = m.find(name);
  return it == m.end() ? 0.0 : it->second;
}

double IngestRejected(const std::map<std::string, double>& m) {
  return Get(m, "ingest.rejected.nonfinite") + Get(m, "ingest.rejected.range") +
         Get(m, "ingest.rejected.stuck");
}

double CurrentRssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long size_pages = 0;
  unsigned long resident_pages = 0;
  const int n = std::fscanf(f, "%lu %lu", &size_pages, &resident_pages);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Linear-interpolated quantile of sorted values (q in [0, 1]).
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Quantile(v, 0.5);
}

// Throughput, p50 and p99 of each block of kBlockRounds consecutive round
// times (a last, shorter block only when the run is shorter than one block).
struct BlockStats {
  std::vector<double> readings_per_s, p50_ms, p99_ms;
};

BlockStats PerBlock(const std::vector<double>& round_ns, size_t leaves) {
  BlockStats out;
  for (size_t b = 0; b < round_ns.size(); b += kBlockRounds) {
    const size_t end = std::min(round_ns.size(), b + kBlockRounds);
    if (end - b < kBlockRounds && b > 0) break;
    std::vector<double> block(round_ns.begin() + static_cast<ptrdiff_t>(b),
                              round_ns.begin() + static_cast<ptrdiff_t>(end));
    double total_ns = 0.0;
    for (double ns : block) total_ns += ns;
    std::sort(block.begin(), block.end());
    out.readings_per_s.push_back(static_cast<double>(leaves * block.size()) /
                                 (total_ns / 1e9));
    out.p50_ms.push_back(Quantile(block, 0.50) / 1e6);
    out.p99_ms.push_back(Quantile(block, 0.99) / 1e6);
  }
  return out;
}

// FNV-1a over the sorted detection keys.
uint64_t Digest(const std::vector<Detection>& sorted) {
  uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (const Detection& d : sorted) {
    mix(d.node);
    mix(d.leaf);
    mix(d.seq);
  }
  return h;
}

// ------------------------------------------------------------------- run

struct RunOptions {
  Workload workload{};
  uint64_t seed = 2026;
  double seconds = 10.0;
  size_t rounds = 0;  // 0: measure for `seconds`
  bool trace = false;
  std::string spans_path;
};

struct Quality {
  uint64_t tp = 0, fp = 0, fn = 0, scored = 0;
  double Precision() const {
    return tp + fp == 0 ? 1.0 : static_cast<double>(tp) /
                                    static_cast<double>(tp + fp);
  }
  double Recall() const {
    return tp + fn == 0 ? 1.0 : static_cast<double>(tp) /
                                    static_cast<double>(tp + fn);
  }
};

struct RunResult {
  std::string workload;
  bool d3 = false;
  uint64_t seed = 0;
  int threads = 0;
  size_t leaves = 0, nodes = 0, levels = 0;
  size_t warmup_rounds = 0, rounds = 0;
  double warmup_s = 0.0, measured_s = 0.0;
  double round_ns_total = 0.0;
  // Medians over the timed blocks.
  double readings_per_s = 0.0, round_ms_p50 = 0.0, round_ms_p99 = 0.0;
  std::vector<double> block_readings_per_s;
  double setup_s = 0.0, ctor_ms = 0.0, instantiate_ms = 0.0,
         schedule_ms = 0.0;
  size_t setups = 0;
  double rss_base_mb = 0.0, rss_peak_mb = 0.0;
  std::map<std::string, double> timed;  // registry deltas over timed rounds
  double ingest_accepted = 0.0, ingest_rejected = 0.0, abandoned = 0.0;
  uint64_t messages_total = 0;  // whole run, this simulator
  size_t detections = 0;
  uint64_t digest = 0;
  uint64_t containment_violations = 0;
  bool has_quality = false;
  Quality quality;
  HarnessTally tally;
  double probe_query_ns = 0.0, probe_create_ns = 0.0;
};

struct Hierarchy {
  HierarchyLayout layout;
  std::vector<int> leaf_slots;
  std::vector<size_t> descendant_leaves;  // per slot
};

Hierarchy BuildHierarchy(size_t leaves) {
  auto layout = BuildGridHierarchy(leaves, kFanout);
  SENSORD_CHECK_OK(layout.status());
  Hierarchy h;
  h.layout = std::move(layout).value();
  h.leaf_slots = h.layout.slots_by_level[0];
  h.descendant_leaves.assign(h.layout.nodes.size(), 0);
  for (int leaf : h.leaf_slots) {
    for (int cur = leaf; cur >= 0;
         cur = h.layout.nodes[static_cast<size_t>(cur)].parent_slot) {
      ++h.descendant_leaves[static_cast<size_t>(cur)];
    }
  }
  return h;
}

std::unique_ptr<Node> MakeNode(const Workload& w, const Hierarchy& h,
                               int slot, const HierarchyNodeSpec& spec,
                               Rng rng, DetectionLog* log) {
  DensityModelConfig leaf_model;
  leaf_model.dimensions = w.dimensions;
  leaf_model.window_size = w.window;
  leaf_model.sample_size = w.sample;
  DensityModelConfig model = leaf_model;
  if (spec.level > 1) {
    model = LeaderModelConfigFor(
        leaf_model, spec.child_slots.size(),
        h.descendant_leaves[static_cast<size_t>(slot)], w.fraction);
  }
  const uint64_t never = std::numeric_limits<uint64_t>::max();
  if (w.detector == Detector::kD3) {
    D3Options opts;
    opts.model = model;
    opts.outlier = D3Criterion(w);
    opts.sample_fraction = w.fraction;
    if (spec.level == 1) {
      opts.min_observations = w.detect ? w.window : never;
      return std::make_unique<D3LeafNode>(opts, rng, log);
    }
    opts.min_observations = w.detect ? w.sample / 2 : never;
    return std::make_unique<D3ParentNode>(opts, rng, log);
  }
  MgddOptions opts;
  opts.model = model;
  opts.mdef = MdefCriterion();
  opts.sample_fraction = w.fraction;
  opts.update_mode = GlobalUpdateMode::kEveryChange;
  opts.min_observations = w.detect ? w.window : never;
  if (spec.level == 1) return std::make_unique<MgddLeafNode>(opts, rng, log);
  return std::make_unique<MgddInternalNode>(opts, rng);
}

struct SetupTimes {
  double ctor_ms = 0.0;
  double instantiate_ms = 0.0;
  double schedule_ms = 0.0;
};

// Simulator construction + Instantiate + SchedulePeriodicReadings, each
// timed into `spans` and `times`.
std::unique_ptr<Simulator> SetUp(const Workload& w, const Hierarchy& h,
                                 Rng node_rng, DetectionLog* log,
                                 std::vector<LeafFeed>* feeds, uint64_t id,
                                 SpanLog* spans, SetupTimes* times) {
  const uint64_t t0 = spans->Now();
  SimulatorOptions opts;
  if (w.link_drop > 0.0) {
    opts.transport.reliable = true;
    // Enough retries that no message is abandoned at this loss rate (an
    // attempt fails with probability 1 - 0.8^2 = 0.36 when either the data
    // or its ack drops): the workload measures retransmission cost, not
    // failures.
    opts.transport.max_retries = 20;
  }
  auto sim = std::make_unique<Simulator>(opts);
  if (w.link_drop > 0.0) {
    LinkFault fault;
    fault.drop_probability = w.link_drop;
    sim->faults().SetDefaultLinkFault(fault);
  }
  const uint64_t t1 = spans->Now();
  const std::vector<NodeId> ids = sim->Instantiate(
      h.layout, [&](int slot, const HierarchyNodeSpec& spec) {
        return MakeNode(w, h, slot, spec, node_rng.Split(), log);
      });
  const uint64_t t2 = spans->Now();
  for (size_t i = 0; i < h.leaf_slots.size(); ++i) {
    LeafFeed* feed = &(*feeds)[i];
    sim->SchedulePeriodicReadings(
        ids[static_cast<size_t>(h.leaf_slots[i])], /*start=*/0.0,
        /*period=*/1.0, [feed]() { return feed->Next(); });
  }
  const uint64_t t3 = spans->Now();
  spans->Add("setup.ctor", id, t0, t1, "setup");
  spans->Add("setup.instantiate", id, t1, t2, "setup");
  spans->Add("setup.schedule", id, t2, t3, "setup");
  spans->Add("setup", id, t0, t3);
  times->ctor_ms = static_cast<double>(t1 - t0) / 1e6;
  times->instantiate_ms = static_cast<double>(t2 - t1) / 1e6;
  times->schedule_ms = static_cast<double>(t3 - t2) / 1e6;
  return sim;
}

// Theorem 3: a value flagged at level k > 1 was flagged, for the same
// (leaf, seq), by the child on the leaf's path. Returns the violations.
uint64_t ContainmentViolations(const Hierarchy& h,
                               const std::vector<Detection>& sorted) {
  // Node ids equal slots: one Instantiate on a fresh simulator.
  uint64_t violations = 0;
  for (const Detection& d : sorted) {
    const auto& spec = h.layout.nodes[d.node];
    if (spec.level == 1) continue;
    int child = static_cast<int>(d.leaf);
    while (child >= 0 &&
           h.layout.nodes[static_cast<size_t>(child)].parent_slot !=
               static_cast<int>(d.node)) {
      child = h.layout.nodes[static_cast<size_t>(child)].parent_slot;
    }
    const Detection below{static_cast<NodeId>(child), d.leaf, d.seq};
    if (child < 0 ||
        !std::binary_search(sorted.begin(), sorted.end(), below)) {
      ++violations;
    }
  }
  return violations;
}

// Detections vs exact ground truth (eval/GroundTruthTracker), replaying the
// inputs after the timed region. The last kScoredRounds timed rounds are
// scored — D3 at every level of the leaf's path (micro-averaged), MGDD at
// the leaf against the root-pool MDEF — and the replay starts one window
// before them, since truth depends only on the last |W| readings per leaf.
Quality Score(const Workload& w, const Hierarchy& h, const Inputs& inputs,
              size_t first_timed, size_t end_round,
              const std::vector<Detection>& sorted) {
  GroundTruthOptions gt;
  gt.dimensions = w.dimensions;
  gt.leaf_window = w.window;
  const MdefConfig mdef = MdefCriterion();
  if (w.detector == Detector::kMgdd) {
    gt.mdef_cell_side = 2.0 * mdef.counting_radius;
  }
  GroundTruthTracker tracker(h.layout, gt);
  const DistanceOutlierConfig criterion = D3Criterion(w);
  const size_t first_scored =
      std::max(first_timed, end_round - std::min(end_round, kScoredRounds));
  const size_t replay_from =
      first_scored - std::min(first_scored, w.window);
  auto flagged = [&sorted](int slot, int leaf, uint64_t seq) {
    return std::binary_search(
        sorted.begin(), sorted.end(),
        Detection{static_cast<NodeId>(slot), static_cast<NodeId>(leaf), seq});
  };
  Quality q;
  Point p(w.dimensions);
  for (size_t r = replay_from; r < end_round; ++r) {
    const bool score = r >= first_scored;
    for (size_t i = 0; i < h.leaf_slots.size(); ++i) {
      const int leaf = h.leaf_slots[i];
      std::copy_n(inputs.At(r, i), w.dimensions, p.begin());
      tracker.AddLeafReading(leaf, p);
      if (!score) continue;
      const uint64_t seq = r + 1;
      auto record = [&q](bool truth, bool detected) {
        ++q.scored;
        if (truth && detected) ++q.tp;
        if (!truth && detected) ++q.fp;
        if (truth && !detected) ++q.fn;
      };
      if (w.detector == Detector::kD3) {
        for (int a = leaf; a >= 0;
             a = h.layout.nodes[static_cast<size_t>(a)].parent_slot) {
          record(tracker.IsTrueDistanceOutlier(a, p, criterion),
                 flagged(a, leaf, seq));
        }
      } else {
        record(tracker.TrueMdef(tracker.RootSlot(), p, mdef).is_outlier,
               flagged(leaf, leaf, seq));
      }
    }
  }
  return q;
}

// Times the public query and estimator-build calls on a live leaf's state:
// the layers without a library timer, measured from outside.
void Probe(const Workload& w, Simulator& sim, NodeId leaf_id,
           const std::vector<Point>& readings, SpanLog* spans,
           RunResult* out) {
  const DensityModel* model = nullptr;
  std::function<bool(const Point&)> query;
  if (w.detector == Detector::kD3) {
    auto* leaf = dynamic_cast<D3LeafNode*>(&sim.node(leaf_id));
    SENSORD_CHECK(leaf != nullptr);
    model = &leaf->model();
    const KernelDensityEstimator& est = model->Estimator();
    const double window_count = model->WindowCount();
    const DistanceOutlierConfig criterion = D3Criterion(w);
    query = [&est, window_count, criterion](const Point& p) {
      return IsDistanceOutlier(est, window_count, p, criterion);
    };
  } else {
    auto* leaf = dynamic_cast<MgddLeafNode*>(&sim.node(leaf_id));
    SENSORD_CHECK(leaf != nullptr);
    model = &leaf->local_model();
    if (leaf->HasGlobalModel()) {
      const KernelDensityEstimator& est = leaf->GlobalEstimator();
      const MdefConfig mdef = MdefCriterion();
      query = [&est, mdef](const Point& p) {
        return ComputeMdef(est, p, mdef).is_outlier;
      };
    }
  }
  if (query) {
    std::vector<double> per_call;
    for (int pass = 0; pass < kProbePasses; ++pass) {
      const uint64_t t0 = spans->Now();
      for (const Point& p : readings) query(p);
      const uint64_t t1 = spans->Now();
      spans->Add("probe.query", static_cast<uint64_t>(pass), t0, t1);
      per_call.push_back(static_cast<double>(t1 - t0) /
                         static_cast<double>(readings.size()));
    }
    out->probe_query_ns = Median(per_call);
  }
  // Estimator builds from copies of the leaf's own sample (unsorted chain
  // order, as a rebuild sees it), copied before the clock starts.
  FlatPoints snapshot;
  model->sample().SnapshotTo(&snapshot);
  const std::vector<double> spreads = model->BandwidthSpreads();
  std::vector<FlatPoints> copies(kCreateProbes, snapshot);
  std::vector<double> per_build;
  for (int i = 0; i < kCreateProbes; ++i) {
    const uint64_t t0 = spans->Now();
    auto built = KernelDensityEstimator::CreateWithScottBandwidths(
        std::move(copies[static_cast<size_t>(i)]), spreads);
    const uint64_t t1 = spans->Now();
    SENSORD_CHECK_OK(built.status());
    spans->Add("probe.create", static_cast<uint64_t>(i), t0, t1);
    per_build.push_back(static_cast<double>(t1 - t0));
  }
  out->probe_create_ns = Median(per_build);
}

// Every leaf's readings for `rounds` rounds, plus kProbeReadings further
// readings of the first leaf for the traced run's probes.
Inputs MakeInputs(const Workload& w, size_t rounds, Rng rng,
                  std::vector<Point>* probe_readings) {
  std::vector<SyntheticMixtureStream> streams;
  streams.reserve(w.leaves);
  for (size_t i = 0; i < w.leaves; ++i) {
    streams.push_back(LeafStream(w.dimensions, i, &rng));
  }
  Inputs inputs;
  inputs.leaves = w.leaves;
  inputs.dims = w.dimensions;
  inputs.rounds = rounds;
  inputs.values.reserve(rounds * w.leaves * w.dimensions);
  for (size_t r = 0; r < rounds; ++r) {
    for (SyntheticMixtureStream& stream : streams) {
      const Point p = stream.Next();
      inputs.values.insert(inputs.values.end(), p.begin(), p.end());
    }
  }
  while (probe_readings->size() < kProbeReadings) {
    probe_readings->push_back(streams[0].Next());
  }
  return inputs;
}

RunResult Run(const RunOptions& o) {
  const Workload& w = o.workload;
  RunResult res;
  res.workload = w.name;
  res.d3 = w.detector == Detector::kD3;
  res.seed = o.seed;
  const Hierarchy h = BuildHierarchy(w.leaves);
  res.leaves = h.leaf_slots.size();
  res.nodes = h.layout.NumNodes();
  res.levels = static_cast<size_t>(h.layout.NumLevels());

  // Inputs first, untimed: every leaf's readings for the warm-up plus the
  // workload's input rounds.
  res.warmup_rounds = WarmupRounds(w);
  Rng master(o.seed);
  std::vector<Point> probe_readings;
  const Inputs inputs = MakeInputs(w, res.warmup_rounds + w.input_rounds,
                                   master.Split(), &probe_readings);
  const Rng node_rng = master.Split();
  res.rss_base_mb = CurrentRssMb();

  SpanLog spans(o.trace);
  spans.Reserve(3 * o.rounds + 4 * kMaxSetups + 2 * kCreateProbes);
  HarnessTally& tally = res.tally;
  DetectionLog log(&tally);
  log.keys().reserve(res.leaves * inputs.rounds / 64);
  std::vector<LeafFeed> feeds(res.leaves);
  for (size_t i = 0; i < res.leaves; ++i) {
    feeds[i] = LeafFeed{&inputs, i, 0, &tally};
  }
  obs::SetTimingEnabled(o.trace);
  const auto registry_start = ReadRegistry();

  // Set-up, repeated; every repetition builds the identical simulator from
  // the same rng, and only the last one runs.
  std::unique_ptr<Simulator> sim;
  std::vector<double> setup_s, ctor_ms, instantiate_ms, schedule_ms;
  uint64_t setup_ns = 0;
  for (size_t k = 0; k < kMaxSetups &&
                     (k < kMinSetups || setup_ns < kSetupBudgetNs);
       ++k) {
    sim.reset();
    SetupTimes t;
    sim = SetUp(w, h, node_rng, &log, &feeds, k, &spans, &t);
    const double ms = t.ctor_ms + t.instantiate_ms + t.schedule_ms;
    ctor_ms.push_back(t.ctor_ms);
    instantiate_ms.push_back(t.instantiate_ms);
    schedule_ms.push_back(t.schedule_ms);
    setup_s.push_back(ms / 1e3);
    setup_ns += static_cast<uint64_t>(ms * 1e6);
  }
  res.setups = setup_s.size();
  res.setup_s = Median(setup_s);
  res.ctor_ms = Median(ctor_ms);
  res.instantiate_ms = Median(instantiate_ms);
  res.schedule_ms = Median(schedule_ms);
  res.threads = sim->threads();

  // Warm-up: untimed rounds that fill the windows.
  const uint64_t warm_start = spans.Now();
  for (size_t r = 0; r < res.warmup_rounds; ++r) {
    sim->RunUntil(static_cast<SimTime>(r) + 0.5);
  }
  res.warmup_s = static_cast<double>(spans.Now() - warm_start) / 1e9;

  // Timed rounds: one RunUntil each, closed loop.
  const auto registry_before = ReadRegistry();
  tally = HarnessTally{};
  tally.timing = o.trace;
  std::vector<double> round_ns;
  const uint64_t budget_ns = static_cast<uint64_t>(o.seconds * 1e9);
  const uint64_t measure_start = spans.Now();
  for (size_t k = 0;; ++k) {
    if (o.rounds > 0 ? k == o.rounds
                     : (k > 0 && k % kBlockRounds == 0 &&
                        spans.Now() - measure_start >= budget_ns)) {
      break;
    }
    const size_t r = res.warmup_rounds + k;
    const uint64_t source_ns = tally.source_ns;
    const uint64_t source_calls = tally.source_calls;
    const uint64_t observer_ns = tally.observer_ns;
    const uint64_t observer_calls = tally.observer_calls;
    const uint64_t t0 = spans.Now();
    sim->RunUntil(static_cast<SimTime>(r) + 0.5);
    const uint64_t t1 = spans.Now();
    round_ns.push_back(static_cast<double>(t1 - t0));
    // Memory is read at a fixed round, not at the end, so that it does not
    // depend on how many rounds fit into the time budget.
    if (k + 1 == kBlockRounds) res.rss_peak_mb = PeakRssMb();
    spans.Add("round", r, t0, t1);
    spans.Add("source", r, t0, t1, "round", tally.source_calls - source_calls,
              tally.source_ns - source_ns);
    if (tally.observer_calls > observer_calls) {
      spans.Add("observer", r, t0, t1, "round",
                tally.observer_calls - observer_calls,
                tally.observer_ns - observer_ns);
    }
  }
  tally.timing = false;
  res.measured_s = static_cast<double>(spans.Now() - measure_start) / 1e9;
  if (round_ns.size() < kBlockRounds) res.rss_peak_mb = PeakRssMb();
  const auto registry_after = ReadRegistry();
  res.timed = Delta(registry_before, registry_after);
  res.rounds = round_ns.size();
  for (double ns : round_ns) res.round_ns_total += ns;
  const BlockStats blocks = PerBlock(round_ns, res.leaves);
  res.readings_per_s = Median(blocks.readings_per_s);
  res.round_ms_p50 = Median(blocks.p50_ms);
  res.round_ms_p99 = Median(blocks.p99_ms);
  res.block_readings_per_s = blocks.readings_per_s;

  const auto whole_run = Delta(registry_start, registry_after);
  res.ingest_accepted = Get(whole_run, "ingest.accepted");
  res.ingest_rejected = IngestRejected(whole_run);
  res.abandoned = Get(whole_run, "net.abandoned");
  res.messages_total = sim->stats().TotalMessages();

  if (o.trace) {
    Probe(w, *sim, static_cast<NodeId>(h.leaf_slots[0]), probe_readings,
          &spans, &res);
  }
  obs::SetTimingEnabled(false);
  sim.reset();

  std::vector<Detection>& keys = log.keys();
  std::sort(keys.begin(), keys.end());
  res.detections = keys.size();
  res.digest = Digest(keys);
  if (w.detector == Detector::kD3) {
    res.containment_violations = ContainmentViolations(h, keys);
  }
  if (w.detect) {
    res.has_quality = true;
    res.quality = Score(w, h, inputs, res.warmup_rounds,
                        res.warmup_rounds + res.rounds, keys);
  }
  if (o.trace && !o.spans_path.empty() && !spans.WriteJsonl(o.spans_path)) {
    std::fprintf(stderr, "perf_bench: cannot write %s\n",
                 o.spans_path.c_str());
    std::exit(1);
  }
  return res;
}

// ------------------------------------------------------------------ output

void PrintJson(const RunResult& r) {
  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64, r.workload.c_str(),
              r.seed);
  std::printf(",\"detector\":\"%s\"", r.d3 ? "d3" : "mgdd");
  std::printf(",\"threads\":%d,\"leaves\":%zu,\"nodes\":%zu,\"levels\":%zu",
              r.threads, r.leaves, r.nodes, r.levels);
  std::printf(",\"warmup_rounds\":%zu,\"rounds\":%zu", r.warmup_rounds,
              r.rounds);
  std::printf(",\"warmup_s\":%.17g,\"measured_s\":%.17g", r.warmup_s,
              r.measured_s);
  std::printf(",\"round_ns_total\":%.17g,\"readings_per_s\":%.17g"
              ",\"round_ms_p50\":%.17g,\"round_ms_p99\":%.17g",
              r.round_ns_total, r.readings_per_s, r.round_ms_p50,
              r.round_ms_p99);
  std::printf(",\"block_readings_per_s\":[");
  for (size_t i = 0; i < r.block_readings_per_s.size(); ++i) {
    std::printf("%s%.17g", i == 0 ? "" : ",", r.block_readings_per_s[i]);
  }
  std::printf("]");
  std::printf(",\"setup_s\":%.17g,\"setups\":%zu,\"ctor_ms\":%.17g"
              ",\"instantiate_ms\":%.17g,\"schedule_ms\":%.17g",
              r.setup_s, r.setups, r.ctor_ms, r.instantiate_ms,
              r.schedule_ms);
  std::printf(",\"rss_base_mb\":%.17g,\"rss_peak_mb\":%.17g", r.rss_base_mb,
              r.rss_peak_mb);
  std::printf(",\"ingest_accepted\":%.17g,\"ingest_rejected\":%.17g"
              ",\"abandoned\":%.17g,\"messages_total\":%" PRIu64,
              r.ingest_accepted, r.ingest_rejected, r.abandoned,
              r.messages_total);
  std::printf(",\"detections\":%zu,\"digest\":\"%016" PRIx64
              "\",\"containment_violations\":%" PRIu64,
              r.detections, r.digest, r.containment_violations);
  if (r.has_quality) {
    std::printf(",\"quality\":{\"scored\":%" PRIu64 ",\"tp\":%" PRIu64
                ",\"fp\":%" PRIu64 ",\"fn\":%" PRIu64
                ",\"precision\":%.17g,\"recall\":%.17g}",
                r.quality.scored, r.quality.tp, r.quality.fp, r.quality.fn,
                r.quality.Precision(), r.quality.Recall());
  } else {
    std::printf(",\"quality\":null");
  }
  std::printf(",\"harness\":{\"source_ns\":%" PRIu64 ",\"source_calls\":%" PRIu64
              ",\"observer_ns\":%" PRIu64 ",\"observer_calls\":%" PRIu64 "}",
              r.tally.source_ns, r.tally.source_calls, r.tally.observer_ns,
              r.tally.observer_calls);
  std::printf(",\"probe\":{\"query_ns\":%.17g,\"create_ns\":%.17g}",
              r.probe_query_ns, r.probe_create_ns);
  std::printf(",\"timed\":{");
  bool first = true;
  for (const auto& [name, value] : r.timed) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
}

// The gates run.py also applies, for the smoke test.
bool GatesHold(const Workload& w, const RunResult& r, std::string* why) {
  const double expected = static_cast<double>(r.leaves) *
                          static_cast<double>(r.warmup_rounds + r.rounds);
  if (r.ingest_accepted != expected) {
    *why = "ingest.accepted != leaves x rounds";
    return false;
  }
  if (r.ingest_rejected != 0.0 || r.abandoned != 0.0) {
    *why = "ingest rejections or abandoned messages";
    return false;
  }
  if (r.containment_violations != 0) {
    *why = "Theorem-3 containment violated";
    return false;
  }
  if (r.threads != 1) {
    *why = "not the serial engine";
    return false;
  }
  if (w.detect && r.detections == 0) {
    *why = "no detections";
    return false;
  }
  return true;
}

int Smoke(uint64_t seed) {
  int failures = 0;
  for (const Workload& full : kWorkloads) {
    RunOptions o;
    o.workload = Tiny(full);
    o.seed = seed;
    o.rounds = kSmokeRounds;
    const RunResult plain = Run(o);
    o.trace = true;
    const RunResult traced = Run(o);
    std::string why;
    bool ok = GatesHold(o.workload, plain, &why) &&
              GatesHold(o.workload, traced, &why);
    if (ok && (plain.digest != traced.digest ||
               plain.messages_total != traced.messages_total)) {
      ok = false;
      why = "tracing changed the run";
    }
    std::printf("smoke %-11s %s (rounds %zu, detections %zu, messages %" PRIu64
                ")%s%s\n",
                full.name, ok ? "ok" : "FAILED", plain.rounds,
                plain.detections, plain.messages_total, ok ? "" : ": ",
                why.c_str());
    if (!ok) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perf_bench --workload NAME [--seed N] [--seconds S]"
               " [--rounds N] [--trace] [--spans PATH]\n"
               "       perf_bench --smoke [--seed N]\n"
               "workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace sensord::perf

int main(int argc, char** argv) {
  using namespace sensord::perf;
  RunOptions o;
  const char* workload = nullptr;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--trace") {
      o.trace = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--rounds" && has_value) {
      o.rounds = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--spans" && has_value) {
      o.spans_path = argv[++i];
    } else {
      return Usage();
    }
  }
  if (smoke) return Smoke(o.seed);
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload != nullptr && std::strcmp(workload, w.name) == 0) found = &w;
  }
  if (found == nullptr || !(o.seconds > 0.0)) return Usage();
  o.workload = *found;
  PrintJson(Run(o));
  return 0;
}
