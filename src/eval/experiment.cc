#include "eval/experiment.h"

#include <map>
#include <memory>
#include <set>
#include <tuple>

#include "baseline/centralized.h"
#include "core/d3.h"
#include "core/density_model.h"
#include "core/distance_outlier.h"
#include "core/mdef.h"
#include "core/mgdd.h"
#include "data/engine_trace.h"
#include "data/environmental_trace.h"
#include "data/shift_trace.h"
#include "data/synthetic.h"
#include "data/stream_source.h"
#include "eval/ground_truth.h"
#include "net/fault_schedule.h"
#include "net/hierarchy.h"
#include "net/network.h"
#include "stats/divergence.h"
#include "stats/histogram.h"
#include "util/rng.h"

#include "util/check.h"

namespace sensord {
namespace {

// Collects detection events keyed by (detecting node, source leaf, source
// sequence number) so the scorer can ask "did node X flag leaf L's reading
// number S?" after the round's messages have drained.
class RecordingObserver : public OutlierObserver {
 public:
  void OnOutlierDetected(const OutlierEvent& event) override {
    keys_.insert({event.node, event.source_leaf, event.source_seq});
  }

  bool WasFlagged(NodeId node, NodeId leaf, uint64_t seq) const {
    return keys_.count({node, leaf, seq}) > 0;
  }

  void Clear() { keys_.clear(); }

 private:
  std::set<std::tuple<NodeId, NodeId, uint64_t>> keys_;
};

std::unique_ptr<StreamSource> MakeStream(WorkloadKind kind, size_t dimensions,
                                         Rng rng) {
  switch (kind) {
    case WorkloadKind::kSyntheticMixture: {
      SyntheticOptions opts;
      opts.dimensions = dimensions;
      return std::make_unique<SyntheticMixtureStream>(opts, rng);
    }
    case WorkloadKind::kEngine:
      return std::make_unique<EngineTraceGenerator>(rng);
    case WorkloadKind::kEnvironmental:
      return std::make_unique<EnvironmentalTraceGenerator>(rng);
    case WorkloadKind::kGappedBimodal: {
      GappedBimodalOptions opts;
      opts.dimensions = dimensions;
      return std::make_unique<GappedBimodalStream>(opts, rng);
    }
  }
  return nullptr;
}

Status ValidateAccuracyConfig(const AccuracyConfig& cfg) {
  if (cfg.num_leaves == 0 || cfg.fanout < 2) {
    return Status::InvalidArgument("need num_leaves >= 1 and fanout >= 2");
  }
  if (cfg.workload == WorkloadKind::kEngine && cfg.dimensions != 1) {
    return Status::InvalidArgument("engine workload is 1-dimensional");
  }
  if (cfg.workload == WorkloadKind::kEnvironmental && cfg.dimensions != 2) {
    return Status::InvalidArgument("environmental workload is 2-dimensional");
  }
  if (cfg.sample_size == 0 || cfg.sample_size > cfg.window_size) {
    return Status::InvalidArgument("need 0 < sample_size <= window_size");
  }
  if (cfg.sample_fraction <= 0.0 || cfg.sample_fraction > 1.0) {
    return Status::InvalidArgument("need sample fraction f in (0, 1]");
  }
  if (cfg.score_subsample == 0) {
    return Status::InvalidArgument("score_subsample must be >= 1");
  }
  if (cfg.link_loss < 0.0 || cfg.link_loss >= 1.0) {
    return Status::InvalidArgument("need link loss in [0, 1)");
  }
  if (!cfg.run_d3 && !cfg.run_mgdd) {
    return Status::InvalidArgument("nothing to run");
  }
  return Status::Ok();
}

// Pre-computed truth of one reading, captured at its arrival instant.
struct PendingScore {
  int leaf_slot = 0;
  std::vector<bool> d3_truth_by_ancestor;  // aligned with ancestor chain
  bool mgdd_truth = false;
};

// Offline histogram state (the paper's comparison method): per hierarchy
// node, an equi-depth histogram over the node's exact pooled window,
// rebuilt every histogram_rebuild_interval rounds.
struct HistogramState {
  std::vector<std::optional<EquiDepthHistogram>> by_slot;
  std::vector<double> pool_size;
  std::vector<std::vector<int>> descendant_leaves;  // per slot
};

void RebuildHistograms(const AccuracyConfig& cfg,
                       const GroundTruthTracker& tracker,
                       HistogramState* state) {
  const HierarchyLayout& layout = tracker.layout();
  for (size_t slot = 0; slot < layout.nodes.size(); ++slot) {
    std::vector<Point> pool;
    for (int leaf : state->descendant_leaves[slot]) {
      const SlidingWindow& w = tracker.LeafWindow(leaf);
      for (size_t i = 0; i < w.size(); ++i) pool.push_back(w.At(i));
    }
    state->pool_size[slot] = static_cast<double>(pool.size());
    if (pool.empty()) continue;
    auto built = EquiDepthHistogram::Build(pool, cfg.sample_size);
    SENSORD_CHECK_OK(built);
    state->by_slot[slot].emplace(std::move(built).value());
  }
}

}  // namespace

StatusOr<AccuracyResult> RunAccuracyExperiment(const AccuracyConfig& cfg) {
  SENSORD_RETURN_IF_ERROR(ValidateAccuracyConfig(cfg));

  auto layout_or = BuildGridHierarchy(cfg.num_leaves, cfg.fanout);
  if (!layout_or.ok()) return layout_or.status();
  const HierarchyLayout& layout = *layout_or;
  const int num_levels = layout.NumLevels();

  Rng master(cfg.seed);

  // Per-leaf workload streams ("each sensor sees a different set of data").
  std::vector<std::unique_ptr<StreamSource>> streams;
  std::vector<int> leaf_slots;
  for (size_t slot = 0; slot < layout.nodes.size(); ++slot) {
    if (layout.nodes[slot].level == 1) {
      leaf_slots.push_back(static_cast<int>(slot));
    }
  }
  streams.reserve(leaf_slots.size());
  for (size_t i = 0; i < leaf_slots.size(); ++i) {
    streams.push_back(MakeStream(cfg.workload, cfg.dimensions,
                                 master.Split()));
  }

  // Exact ground truth over all pooled windows.
  GroundTruthOptions gt_opts;
  gt_opts.dimensions = cfg.dimensions;
  gt_opts.leaf_window = cfg.window_size;
  gt_opts.mdef_cell_side =
      cfg.run_mgdd ? 2.0 * cfg.mdef.counting_radius : 0.0;
  GroundTruthTracker tracker(layout, gt_opts);

  // Shared model configuration.
  DensityModelConfig leaf_model;
  leaf_model.dimensions = cfg.dimensions;
  leaf_model.window_size = cfg.window_size;
  leaf_model.sample_size = cfg.sample_size;
  leaf_model.epsilon = cfg.epsilon;
  leaf_model.robust_bandwidth = cfg.robust_bandwidth;

  // Per-slot subtree shape, so leader models speak for the exact population
  // below them even in unbalanced trees.
  std::vector<size_t> descendant_leaves(layout.nodes.size(), 0);
  for (size_t slot = 0; slot < layout.nodes.size(); ++slot) {
    if (layout.nodes[slot].level != 1) continue;
    int cur = static_cast<int>(slot);
    while (cur >= 0) {
      ++descendant_leaves[static_cast<size_t>(cur)];
      cur = layout.nodes[static_cast<size_t>(cur)].parent_slot;
    }
  }
  auto leader_model = [&](int slot) {
    const HierarchyNodeSpec& spec = layout.nodes[static_cast<size_t>(slot)];
    return LeaderModelConfigFor(leaf_model, spec.child_slots.size(),
                                descendant_leaves[static_cast<size_t>(slot)],
                                cfg.sample_fraction);
  };

  // ------------------------------------------------- kernel simulations --
  const bool kernel = cfg.method == EstimatorMethod::kKernel;
  const bool use_d3_sim = kernel && cfg.run_d3;
  const bool use_mgdd_sim = kernel && cfg.run_mgdd;

  RecordingObserver d3_recorder, mgdd_recorder;
  std::unique_ptr<Simulator> d3_sim, mgdd_sim;
  std::vector<NodeId> d3_ids, mgdd_ids;

  SimulatorOptions sim_opts;
  sim_opts.transport = cfg.transport;
  LinkFault link_loss;
  link_loss.drop_probability = cfg.link_loss;

  if (use_d3_sim) {
    d3_sim = std::make_unique<Simulator>(sim_opts);
    d3_sim->faults().SetDefaultLinkFault(link_loss);
    Rng node_rng = master.Split();
    d3_ids = d3_sim->Instantiate(
        layout, [&](int slot, const HierarchyNodeSpec& spec)
                    -> std::unique_ptr<Node> {
          D3Options opts;
          opts.outlier = cfg.d3_outlier;
          opts.sample_fraction = cfg.sample_fraction;
          opts.staleness_threshold = cfg.staleness_threshold;
          if (spec.level == 1) {
            opts.model = leaf_model;
            opts.min_observations = cfg.sample_size;
            return std::make_unique<D3LeafNode>(opts, node_rng.Split(),
                                                &d3_recorder);
          }
          opts.model = leader_model(slot);
          opts.min_observations = cfg.sample_size / 2;
          return std::make_unique<D3ParentNode>(opts, node_rng.Split(),
                                                &d3_recorder);
        });
  }

  if (use_mgdd_sim) {
    SimulatorOptions mgdd_sim_opts = sim_opts;
    mgdd_sim_opts.fault_seed = sim_opts.fault_seed + 1;
    mgdd_sim = std::make_unique<Simulator>(mgdd_sim_opts);
    mgdd_sim->faults().SetDefaultLinkFault(link_loss);
    Rng node_rng = master.Split();
    mgdd_ids = mgdd_sim->Instantiate(
        layout, [&](int slot, const HierarchyNodeSpec& spec)
                    -> std::unique_ptr<Node> {
          MgddOptions opts;
          opts.mdef = cfg.mdef;
          opts.sample_fraction = cfg.sample_fraction;
          opts.update_mode = cfg.mgdd_update_mode;
          opts.min_observations = cfg.sample_size;
          opts.staleness_threshold = cfg.staleness_threshold;
          if (spec.level == 1) {
            opts.model = leaf_model;
            return std::make_unique<MgddLeafNode>(opts, node_rng.Split(),
                                                  &mgdd_recorder);
          }
          opts.model = leader_model(slot);
          return std::make_unique<MgddInternalNode>(opts, node_rng.Split());
        });
  }

  // ------------------------------------------------ histogram emulation --
  HistogramState hist;
  if (!kernel) {
    hist.by_slot.resize(layout.nodes.size());
    hist.pool_size.assign(layout.nodes.size(), 0.0);
    hist.descendant_leaves.resize(layout.nodes.size());
    for (int leaf : leaf_slots) {
      int cur = leaf;
      while (cur >= 0) {
        hist.descendant_leaves[static_cast<size_t>(cur)].push_back(leaf);
        cur = layout.nodes[static_cast<size_t>(cur)].parent_slot;
      }
    }
  }

  // Ancestor chains (leaf slot -> slots from leaf to root).
  std::map<int, std::vector<int>> ancestors;
  for (int leaf : leaf_slots) {
    std::vector<int> chain;
    int cur = leaf;
    while (cur >= 0) {
      chain.push_back(cur);
      cur = layout.nodes[static_cast<size_t>(cur)].parent_slot;
    }
    ancestors[leaf] = std::move(chain);
  }

  AccuracyResult result;
  result.d3_by_level.resize(static_cast<size_t>(num_levels));

  const size_t total_rounds = cfg.warmup_rounds + cfg.measured_rounds;
  const int root_slot = tracker.RootSlot();
  std::vector<PendingScore> pending;
  std::vector<Point> round_points(leaf_slots.size());

  for (size_t round = 0; round < total_rounds; ++round) {
    const bool score_round = round >= cfg.warmup_rounds &&
                             (round - cfg.warmup_rounds) %
                                     cfg.score_subsample ==
                                 0;
    pending.clear();

    if (!kernel && round % cfg.histogram_rebuild_interval == 0 &&
        round + 1 >= cfg.window_size / 2) {
      RebuildHistograms(cfg, tracker, &hist);
    }

    for (size_t i = 0; i < leaf_slots.size(); ++i) {
      const int leaf = leaf_slots[i];
      const Point p = streams[i]->Next();
      round_points[i] = p;
      tracker.AddLeafReading(leaf, p);

      if (score_round) {
        PendingScore ps;
        ps.leaf_slot = leaf;
        if (cfg.run_d3) {
          for (int a : ancestors[leaf]) {
            ps.d3_truth_by_ancestor.push_back(
                tracker.IsTrueDistanceOutlier(a, p, cfg.d3_outlier));
          }
        }
        if (cfg.run_mgdd) {
          ps.mgdd_truth = tracker.TrueMdef(root_slot, p, cfg.mdef).is_outlier;
        }
        pending.push_back(std::move(ps));
      }

      if (use_d3_sim) {
        d3_sim->DeliverReading(d3_ids[static_cast<size_t>(leaf)], p);
      }
      if (use_mgdd_sim) {
        mgdd_sim->DeliverReading(mgdd_ids[static_cast<size_t>(leaf)], p);
      }
    }

    // Drain this round's messages (hop latency 1 ms, <= levels hops).
    const SimTime end_of_round = static_cast<SimTime>(round) + 0.5;
    if (use_d3_sim) d3_sim->RunUntil(end_of_round);
    if (use_mgdd_sim) mgdd_sim->RunUntil(end_of_round);

    if (!score_round) continue;

    // Resolve: compare detections (or histogram decisions) against truth.
    const uint64_t seq = round + 1;  // each leaf has seen exactly this many
    size_t pending_idx = 0;
    for (size_t i = 0; i < leaf_slots.size(); ++i) {
      const int leaf = leaf_slots[i];
      const PendingScore& ps = pending[pending_idx++];
      SENSORD_CHECK_EQ(ps.leaf_slot, leaf);
      const Point& p = round_points[i];

      if (cfg.run_d3) {
        bool still_flagged = true;  // histogram escalation gate
        const auto& chain = ancestors[leaf];
        for (size_t k = 0; k < chain.size(); ++k) {
          const int a = chain[k];
          const int lvl = layout.nodes[static_cast<size_t>(a)].level;
          bool flagged;
          if (kernel) {
            flagged = d3_recorder.WasFlagged(
                d3_ids[static_cast<size_t>(a)],
                d3_ids[static_cast<size_t>(leaf)], seq);
          } else {
            const auto& h = hist.by_slot[static_cast<size_t>(a)];
            flagged = still_flagged && h.has_value() &&
                      IsDistanceOutlier(
                          *h, hist.pool_size[static_cast<size_t>(a)], p,
                          cfg.d3_outlier);
            still_flagged = flagged;
          }
          result.d3_by_level[static_cast<size_t>(lvl - 1)].Record(
              ps.d3_truth_by_ancestor[k], flagged);
        }
      }

      if (cfg.run_mgdd) {
        bool flagged;
        if (kernel) {
          flagged = mgdd_recorder.WasFlagged(
              mgdd_ids[static_cast<size_t>(leaf)],
              mgdd_ids[static_cast<size_t>(leaf)], seq);
        } else {
          const auto& h = hist.by_slot[static_cast<size_t>(root_slot)];
          flagged =
              h.has_value() && ComputeMdef(*h, p, cfg.mdef).is_outlier;
        }
        result.mgdd.Record(ps.mgdd_truth, flagged);
      }
    }
    d3_recorder.Clear();
    mgdd_recorder.Clear();
  }

  if (use_d3_sim) result.d3_messages = d3_sim->stats().TotalMessages();
  if (use_mgdd_sim) result.mgdd_messages = mgdd_sim->stats().TotalMessages();
  return result;
}

StatusOr<AccuracyResult> RunAccuracyExperimentAveraged(
    const AccuracyConfig& config, size_t runs) {
  if (runs == 0) {
    return Status::InvalidArgument("need at least one run");
  }
  AccuracyResult merged;
  for (size_t r = 0; r < runs; ++r) {
    AccuracyConfig cfg = config;
    cfg.seed = config.seed + r;
    auto one = RunAccuracyExperiment(cfg);
    if (!one.ok()) return one.status();
    if (merged.d3_by_level.empty()) {
      merged.d3_by_level.resize(one->d3_by_level.size());
    }
    for (size_t i = 0; i < one->d3_by_level.size(); ++i) {
      merged.d3_by_level[i].Merge(one->d3_by_level[i]);
    }
    merged.mgdd.Merge(one->mgdd);
    merged.d3_messages += one->d3_messages;
    merged.mgdd_messages += one->mgdd_messages;
  }
  return merged;
}

std::vector<EstimationAccuracyPoint> RunEstimationAccuracy(
    const EstimationAccuracyConfig& cfg) {
  Rng master(cfg.seed);

  DensityModelConfig leaf_cfg;
  leaf_cfg.dimensions = 1;
  leaf_cfg.window_size = cfg.window_size;
  leaf_cfg.sample_size = cfg.sample_size;
  leaf_cfg.epsilon = cfg.epsilon;

  // The observed leaf plus (fanout - 1) siblings feeding the same parent.
  std::vector<ShiftingGaussianStream> streams;
  std::vector<DensityModel> leaves;
  ShiftTraceOptions trace_opts;
  trace_opts.phase_length = cfg.phase_length;
  for (size_t i = 0; i < cfg.fanout; ++i) {
    streams.emplace_back(trace_opts, master.Split());
    leaves.emplace_back(leaf_cfg, master.Split());
  }

  // One parent model per evaluated sample fraction f. A parent sees about
  // fanout * f * |R| propagated values per logical window.
  std::vector<DensityModel> parents;
  std::vector<Rng> parent_rngs;
  for (double f : cfg.parent_fractions) {
    DensityModelConfig parent_cfg = leaf_cfg;
    const double arrivals = static_cast<double>(cfg.fanout) * f *
                            static_cast<double>(cfg.sample_size);
    parent_cfg.window_size = std::max<size_t>(
        cfg.sample_size, static_cast<size_t>(arrivals));
    parents.emplace_back(parent_cfg, master.Split());
    parent_rngs.push_back(master.Split());
  }

  std::vector<EstimationAccuracyPoint> series;
  for (uint64_t t = 0; t < cfg.total_rounds; ++t) {
    for (size_t i = 0; i < cfg.fanout; ++i) {
      const Point p = streams[i].Next();
      const bool inserted = leaves[i].Observe(p);
      if (!inserted) continue;
      for (size_t k = 0; k < parents.size(); ++k) {
        if (parent_rngs[k].Bernoulli(cfg.parent_fractions[k])) {
          parents[k].Observe(p);
        }
      }
    }

    if ((t + 1) % cfg.eval_every != 0) continue;
    const AnalyticDistribution truth = streams[0].TrueDistributionAt(t);
    EstimationAccuracyPoint point;
    point.t = t + 1;
    auto leaf_js =
        JsDivergenceOnGrid(leaves[0].Estimator(), truth, cfg.js_grid_cells);
    SENSORD_CHECK_OK(leaf_js);
    point.leaf_js = *leaf_js;
    for (DensityModel& parent : parents) {
      if (!parent.Ready()) {
        point.parent_js.push_back(1.0);
        continue;
      }
      auto js = JsDivergenceOnGrid(parent.Estimator(), truth,
                                   cfg.js_grid_cells);
      point.parent_js.push_back(js.ok() ? *js : 1.0);
    }
    series.push_back(std::move(point));
  }
  return series;
}

StatusOr<MessageScalingResult> RunMessageScaling(
    const MessageScalingConfig& cfg) {
  auto layout_or = BuildGridHierarchy(cfg.num_leaves, cfg.fanout);
  if (!layout_or.ok()) return layout_or.status();
  const HierarchyLayout& layout = *layout_or;

  MessageScalingResult result;
  result.num_nodes = layout.NumNodes();

  Rng master(cfg.seed);

  DensityModelConfig leaf_model;
  leaf_model.dimensions = cfg.dimensions;
  leaf_model.window_size = cfg.window_size;
  leaf_model.sample_size = cfg.sample_size;
  leaf_model.epsilon = cfg.epsilon;
  leaf_model.prewarm_steady_state = true;

  std::vector<size_t> descendant_leaves(layout.nodes.size(), 0);
  for (size_t slot = 0; slot < layout.nodes.size(); ++slot) {
    if (layout.nodes[slot].level != 1) continue;
    int cur = static_cast<int>(slot);
    while (cur >= 0) {
      ++descendant_leaves[static_cast<size_t>(cur)];
      cur = layout.nodes[static_cast<size_t>(cur)].parent_slot;
    }
  }
  auto leader_model = [&](int slot) {
    const HierarchyNodeSpec& spec = layout.nodes[static_cast<size_t>(slot)];
    DensityModelConfig m = LeaderModelConfigFor(
        leaf_model, spec.child_slots.size(),
        descendant_leaves[static_cast<size_t>(slot)], cfg.sample_fraction);
    m.prewarm_steady_state = true;
    return m;
  };

  auto max_node_energy = [](const Simulator& sim) {
    double max_e = 0.0;
    for (size_t i = 0; i < sim.NumNodes(); ++i) {
      max_e = std::max(max_e, sim.EnergyConsumed(static_cast<NodeId>(i)));
    }
    return max_e;
  };

  auto schedule_readings = [&](Simulator& sim, const std::vector<NodeId>& ids,
                               Rng* rng) {
    for (size_t slot = 0; slot < layout.nodes.size(); ++slot) {
      if (layout.nodes[slot].level != 1) continue;
      auto stream = std::make_shared<SyntheticMixtureStream>(
          SyntheticOptions{}, rng->Split());
      sim.SchedulePeriodicReadings(ids[slot], /*start=*/0.0, /*period=*/1.0,
                                   [stream]() { return stream->Next(); });
    }
  };

  // --- D3: count sample-propagation traffic (the paper excludes the rare
  //     outlier-report messages from this comparison). Detection itself is
  //     disabled via min_observations to keep the horizon long.
  {
    Simulator sim;
    Rng rng = master.Split();
    std::vector<NodeId> ids = sim.Instantiate(
        layout, [&](int slot, const HierarchyNodeSpec& spec)
                    -> std::unique_ptr<Node> {
          D3Options opts;
          opts.sample_fraction = cfg.sample_fraction;
          opts.min_observations = UINT64_MAX;  // traffic-only run
          if (spec.level == 1) {
            opts.model = leaf_model;
            return std::make_unique<D3LeafNode>(opts, rng.Split(), nullptr);
          }
          opts.model = leader_model(slot);
          return std::make_unique<D3ParentNode>(opts, rng.Split(), nullptr);
        });
    Rng stream_rng = master.Split();
    schedule_readings(sim, ids, &stream_rng);
    sim.RunUntil(cfg.duration_seconds);
    result.d3_messages_per_second =
        static_cast<double>(sim.stats().MessagesOfKind(kMsgSampleValue)) /
        cfg.duration_seconds;
    result.d3_max_node_energy_per_second =
        max_node_energy(sim) / cfg.duration_seconds;
  }

  // --- MGDD: sample propagation plus global-model dissemination.
  {
    Simulator sim;
    Rng rng = master.Split();
    std::vector<NodeId> ids = sim.Instantiate(
        layout, [&](int slot, const HierarchyNodeSpec& spec)
                    -> std::unique_ptr<Node> {
          MgddOptions opts;
          opts.sample_fraction = cfg.sample_fraction;
          opts.min_observations = UINT64_MAX;  // traffic-only run
          if (spec.level == 1) {
            opts.model = leaf_model;
            return std::make_unique<MgddLeafNode>(opts, rng.Split(),
                                                  nullptr);
          }
          opts.model = leader_model(slot);
          return std::make_unique<MgddInternalNode>(opts, rng.Split());
        });
    Rng stream_rng = master.Split();
    schedule_readings(sim, ids, &stream_rng);
    sim.RunUntil(cfg.duration_seconds);
    result.mgdd_messages_per_second =
        static_cast<double>(
            sim.stats().MessagesOfKind(kMsgSampleValue) +
            sim.stats().MessagesOfKind(kMsgGlobalModelUpdate)) /
        cfg.duration_seconds;
    result.mgdd_max_node_energy_per_second =
        max_node_energy(sim) / cfg.duration_seconds;
  }

  // --- Centralized: every reading travels to the root.
  {
    Simulator sim;
    std::vector<NodeId> ids = sim.Instantiate(
        layout, [&](int, const HierarchyNodeSpec& spec)
                    -> std::unique_ptr<Node> {
          if (spec.level == 1) {
            return std::make_unique<CentralizedLeafNode>();
          }
          return std::make_unique<CentralizedRelayNode>(cfg.window_size,
                                                        cfg.dimensions);
        });
    Rng stream_rng = master.Split();
    schedule_readings(sim, ids, &stream_rng);
    sim.RunUntil(cfg.duration_seconds);
    result.centralized_messages_per_second =
        static_cast<double>(sim.stats().MessagesOfKind(kMsgRawReading)) /
        cfg.duration_seconds;
    result.centralized_max_node_energy_per_second =
        max_node_energy(sim) / cfg.duration_seconds;
  }

  return result;
}

}  // namespace sensord
