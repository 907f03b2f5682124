// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// Shared plumbing for the figure-reproduction harnesses: consistent table
// formatting, environment-variable size overrides so CI can run reduced
// instances (SENSORD_QUICK=1) while the default invocation reproduces the
// paper-scale experiment, and standard end-of-run telemetry (metrics table +
// machine-readable BENCH_*.json, see RunTelemetry).

#ifndef SENSORD_BENCH_BENCH_UTIL_H_
#define SENSORD_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "obs/exporters.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/status.h"

namespace sensord::bench {

/// True when SENSORD_QUICK=1: harnesses shrink workloads so the whole bench
/// suite finishes quickly (used by smoke runs; numbers remain directional).
inline bool QuickMode() {
  const char* v = std::getenv("SENSORD_QUICK");
  return v != nullptr && std::strcmp(v, "0") != 0;
}

/// Integer env override with default.
inline long EnvLong(const char* name, long fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::atol(v);
}

/// Prints a section header.
inline void Header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Prints a horizontal rule sized for the standard table width.
inline void Rule() {
  std::printf("---------------------------------------------------------"
              "---------------------\n");
}

/// Standard end-of-run telemetry for the fig/ablation binaries. Construct
/// one at the top of main(); on destruction it prints the process-wide
/// metrics table and — when SENSORD_BENCH_JSON is set — writes the
/// machine-readable perf record:
///
///   SENSORD_BENCH_JSON=1          -> ./BENCH_<name>.json
///   SENSORD_BENCH_JSON=<path>     -> <path>  (trailing '/' appends default)
///
/// Scalar results registered with AddResult land in the record's "results"
/// section next to the full metrics snapshot (obs::WriteBenchJson).
class RunTelemetry {
 public:
  explicit RunTelemetry(std::string bench_name)
      : bench_name_(std::move(bench_name)) {
    // SENSORD_TRACE_JSONL / SENSORD_FLIGHT_JSONL opt any bench binary into
    // the causal-trace and flight-recorder sinks; no-ops when unset.
    obs::InitTracingFromEnv();
  }

  RunTelemetry(const RunTelemetry&) = delete;
  RunTelemetry& operator=(const RunTelemetry&) = delete;

  void AddResult(const std::string& name, double value) {
    results_.emplace_back(name, value);
  }

  ~RunTelemetry() {
    // Flush flight rings (reason "shutdown") and close both trace sinks
    // before the metrics table prints, so the JSONL artifacts are complete
    // even if the process exits right after.
    obs::ShutdownTracingFromEnv();
    const auto& registry = obs::MetricsRegistry::Global();
    Header("metrics: " + bench_name_);
    obs::PrintMetricsTable(registry, stdout);
    const char* env = std::getenv("SENSORD_BENCH_JSON");
    if (env == nullptr || *env == '\0') return;
    std::string path = env;
    const std::string fallback = "BENCH_" + bench_name_ + ".json";
    if (path == "1") {
      path = fallback;
    } else if (path.back() == '/') {
      path += fallback;
    }
    const obs::BenchMetadata metadata = {
        {"quick", QuickMode() ? "1" : "0"},
    };
    const Status status =
        obs::WriteBenchJson(path, bench_name_, results_, registry, metadata);
    if (!status.ok()) {
      std::fprintf(stderr, "bench json write failed: %s\n",
                   status.message().c_str());
    } else {
      std::printf("wrote %s\n", path.c_str());
    }
  }

 private:
  std::string bench_name_;
  obs::BenchResults results_;
};

}  // namespace sensord::bench

#endif  // SENSORD_BENCH_BENCH_UTIL_H_
