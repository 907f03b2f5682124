// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// Umbrella header: includes the whole public API. Convenient for
// applications; larger builds may prefer including the specific module
// headers (each is self-contained and documented).

#ifndef SENSORD_SENSORD_H_
#define SENSORD_SENSORD_H_

// Utilities.
#include "util/logging.h"    // IWYU pragma: export
#include "util/math_utils.h" // IWYU pragma: export
#include "util/rng.h"        // IWYU pragma: export
#include "util/status.h"     // IWYU pragma: export

// Streaming substrate.
#include "stream/chain_sample.h"    // IWYU pragma: export
#include "stream/sliding_window.h"  // IWYU pragma: export
#include "stream/variance_sketch.h" // IWYU pragma: export

// Non-parametric estimation.
#include "stats/bandwidth.h"  // IWYU pragma: export
#include "stats/divergence.h" // IWYU pragma: export
#include "stats/empirical.h"  // IWYU pragma: export
#include "stats/estimator.h"  // IWYU pragma: export
#include "stats/histogram.h"  // IWYU pragma: export
#include "stats/kde.h"        // IWYU pragma: export
#include "stats/kernel.h"     // IWYU pragma: export
#include "stats/moments.h"    // IWYU pragma: export
#include "stats/wavelet.h"    // IWYU pragma: export

// Sensor-network simulator.
#include "net/event_queue.h"     // IWYU pragma: export
#include "net/fault_schedule.h"  // IWYU pragma: export
#include "net/hierarchy.h"       // IWYU pragma: export
#include "net/message.h"         // IWYU pragma: export
#include "net/network.h"         // IWYU pragma: export
#include "net/node.h"            // IWYU pragma: export
#include "net/stats_collector.h" // IWYU pragma: export
#include "net/transport.h"       // IWYU pragma: export

// The paper's algorithms and applications.
#include "core/config.h"           // IWYU pragma: export
#include "core/d3.h"               // IWYU pragma: export
#include "core/density_model.h"    // IWYU pragma: export
#include "core/distance_outlier.h" // IWYU pragma: export
#include "core/faulty_sensor.h"    // IWYU pragma: export
#include "core/mdef.h"             // IWYU pragma: export
#include "core/mgdd.h"             // IWYU pragma: export
#include "core/outlier_observer.h" // IWYU pragma: export
#include "core/protocol.h"         // IWYU pragma: export
#include "core/query_processing.h" // IWYU pragma: export
#include "core/range_query.h"      // IWYU pragma: export

// Baselines and ground truth.
#include "baseline/brute_force_d.h" // IWYU pragma: export
#include "baseline/brute_force_m.h" // IWYU pragma: export
#include "baseline/centralized.h"   // IWYU pragma: export

// Workloads and trace I/O.
#include "data/analytic.h"            // IWYU pragma: export
#include "data/engine_trace.h"        // IWYU pragma: export
#include "data/environmental_trace.h" // IWYU pragma: export
#include "data/normalize.h"           // IWYU pragma: export
#include "data/shift_trace.h"         // IWYU pragma: export
#include "data/stream_source.h"       // IWYU pragma: export
#include "data/synthetic.h"           // IWYU pragma: export
#include "data/trace_io.h"            // IWYU pragma: export

// Evaluation harness.
#include "eval/box_counter.h"  // IWYU pragma: export
#include "eval/experiment.h"   // IWYU pragma: export
#include "eval/ground_truth.h" // IWYU pragma: export
#include "eval/scoring.h"      // IWYU pragma: export

#endif  // SENSORD_SENSORD_H_
