// Reproduces Figure 11: "Number of messages in network per second
// (log-scale), while varying the number of sensors" — Centralized vs MGDD
// vs D3.
//
// Setup (Section 10.3): each sensor produces one reading per second,
// |W| = 10240, |R| = 1024, f = 0.25; D3 counts only the incremental sample
// propagation (outlier reports are rare and excluded, as in the paper);
// MGDD adds the global-model updates flowing down. Paper headline: D3 needs
// about two orders of magnitude fewer messages than the centralized
// approach, with MGDD in between.

#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "eval/experiment.h"

int main() {
  using namespace sensord;
  bench::Header("Figure 11: messages per second vs number of sensors");
  bench::RunTelemetry telemetry("fig11_message_scaling");
  const auto wall_start = std::chrono::steady_clock::now();

  MessageScalingConfig base;
  base.fanout = 4;
  base.window_size =
      static_cast<size_t>(bench::EnvLong("SENSORD_WINDOW", 10240));
  base.sample_size = base.window_size / 10;
  base.sample_fraction = 0.25;
  base.duration_seconds =
      static_cast<double>(bench::EnvLong("SENSORD_DURATION", 600));
  base.seed = 2026;

  std::vector<size_t> sizes = {48, 192, 768, 1536, 3072, 6144};
  if (bench::QuickMode()) {
    sizes = {48, 192, 768};
    base.duration_seconds = 120.0;
    base.window_size = 2048;
    base.sample_size = 256;
  }

  std::printf("%10s %10s %14s %14s %14s %12s %22s\n", "Leaves", "Nodes",
              "Centralized/s", "MGDD/s", "D3/s", "Cent/D3",
              "hottest node E/s C|M|D");
  bench::Rule();
  for (size_t leaves : sizes) {
    MessageScalingConfig cfg = base;
    cfg.num_leaves = leaves;
    auto r = RunMessageScaling(cfg);
    if (!r.ok()) {
      std::printf("ERROR: %s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("%10zu %10zu %14.1f %14.1f %14.1f %11.1fx %7.2f %6.2f %6.2f\n",
                leaves, r->num_nodes, r->centralized_messages_per_second,
                r->mgdd_messages_per_second, r->d3_messages_per_second,
                r->centralized_messages_per_second /
                    std::max(1e-9, r->d3_messages_per_second),
                r->centralized_max_node_energy_per_second,
                r->mgdd_max_node_energy_per_second,
                r->d3_max_node_energy_per_second);
  }
  std::printf("\nPaper shape: Centralized >> MGDD >> D3, with roughly two "
              "orders of magnitude between Centralized and D3. The hottest-"
              "node energy column shows the lifetime bottleneck: under "
              "centralization the root's radio burns energy proportional to "
              "the whole network's readings.\n");

  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  telemetry.AddResult("wall_seconds", wall_seconds);
  std::printf("wall-clock: %.1f s\n", wall_seconds);
  return 0;
}
