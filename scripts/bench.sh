#!/usr/bin/env bash
# Builds the release preset and runs the benchmark suite with machine-readable
# output:
#   - bench/micro_benchmarks via google-benchmark's JSON reporter
#     -> $OUT_DIR/BENCH_micro.json
#   - one figure harness (fig11_message_scaling, the paper's headline
#     messages-per-second experiment) through the RunTelemetry JSON writer
#     -> $OUT_DIR/BENCH_fig11_message_scaling.json
#   - the packet-loss ablation (ack/retransmit transport on/off), whose
#     metrics table carries the transport + degradation counters
#     (net.retries, net.timeouts, net.dup_suppressed, net.abandoned,
#     core.degraded_windows) -> $OUT_DIR/BENCH_ablation_packet_loss.json
#   - the crash-recovery ablation (level-2 recall and time-to-recover vs
#     checkpoint interval under amnesia crashes; recovery.* counters)
#     -> $OUT_DIR/BENCH_ablation_crash_recovery.json
#   - a seeded trace_outliers run with the causal-trace and flight-recorder
#     sinks enabled -> $OUT_DIR/TRACE_demo.jsonl + FLIGHT_demo.jsonl,
#     validated and summarized by tools/trace/trace_report.py
#
# SENSORD_QUICK=1 (default here) keeps the run CI-sized; set SENSORD_QUICK=0
# for paper-scale numbers; the choice is recorded in every BENCH_*.json
# "meta" section. OUT_DIR defaults to the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
OUT_DIR="${OUT_DIR:-.}"
mkdir -p "${OUT_DIR}"
export SENSORD_QUICK="${SENSORD_QUICK:-1}"
echo "bench.sh: SENSORD_QUICK=${SENSORD_QUICK}"

cmake --preset release
cmake --build --preset release -j "${JOBS}" \
    --target micro_benchmarks fig11_message_scaling ablation_packet_loss \
            ablation_crash_recovery trace_outliers

echo "=== bench.sh [1/5] micro_benchmarks -> ${OUT_DIR}/BENCH_micro.json ==="
# Filter to a quick, representative subset in quick mode; everything else
# still runs when SENSORD_QUICK=0.
FILTER=""
if [ "${SENSORD_QUICK}" != "0" ]; then
  FILTER="--benchmark_filter=(BM_Obs.*|BM_ChainSampleAdd/128|BM_KdeBoxQuery1d/500|BM_KdeBoxQueryPruned2d/512|BM_KdeBoxQueryPruned3d/512|BM_MdefEvaluation2dScott(Cold|PerVersion)?/512|BM_DensityModelRebuild/(512|2048)|BM_DensityModelRebuild1d/500|BM_MgddReplicaUpdate/(128|512)|BM_VarianceSketch(Add|AddStdDev|StdDev)/10000|BM_FleetObserve/W:1024/R:102)"
  export BENCHMARK_MIN_TIME="${BENCHMARK_MIN_TIME:-0.05}"
fi
build/release/bench/micro_benchmarks ${FILTER} \
    ${BENCHMARK_MIN_TIME:+--benchmark_min_time="${BENCHMARK_MIN_TIME}"} \
    --benchmark_out="${OUT_DIR}/BENCH_micro.json" \
    --benchmark_out_format=json

echo "=== bench.sh [2/5] fig11_message_scaling ==="
SENSORD_BENCH_JSON="${OUT_DIR}/" build/release/bench/fig11_message_scaling

echo "=== bench.sh [3/5] ablation_packet_loss (transport counters) ==="
SENSORD_BENCH_JSON="${OUT_DIR}/" build/release/bench/ablation_packet_loss

echo "=== bench.sh [4/5] ablation_crash_recovery (recovery counters) ==="
SENSORD_BENCH_JSON="${OUT_DIR}/" build/release/bench/ablation_crash_recovery

echo "=== bench.sh [5/5] causal trace + flight recorder artifacts ==="
# The seeded trace_outliers demo (D3 + MGDD hierarchies with observers)
# emits per-decision causal chains; the report joins them and the validator
# gates on malformed lines and orphan spans.
SENSORD_TRACE_JSONL="${OUT_DIR}/TRACE_demo.jsonl" \
SENSORD_FLIGHT_JSONL="${OUT_DIR}/FLIGHT_demo.jsonl" \
    build/release/examples/trace_outliers > /dev/null
python3 tools/trace/trace_report.py "${OUT_DIR}/TRACE_demo.jsonl" \
    --flight "${OUT_DIR}/FLIGHT_demo.jsonl" --validate
python3 tools/trace/trace_report.py "${OUT_DIR}/TRACE_demo.jsonl" \
    --flight "${OUT_DIR}/FLIGHT_demo.jsonl" --max-chains 5

python3 - "$OUT_DIR/BENCH_micro.json" \
    "$OUT_DIR/BENCH_fig11_message_scaling.json" \
    "$OUT_DIR/BENCH_ablation_packet_loss.json" \
    "$OUT_DIR/BENCH_ablation_crash_recovery.json" <<'EOF'
import json, sys
docs = {}
for path in sys.argv[1:]:
    with open(path) as f:
        docs[path] = json.load(f)
    print(f"bench.sh: {path} is valid JSON")
# The flat-buffer rebuild contract (DESIGN.md §13): a warm rebuild allocates
# the same O(d) vectors whatever |R| is.
allocs = {b["name"]: b.get("allocs_per_rebuild")
          for b in docs[sys.argv[1]]["benchmarks"]}
small = allocs.get("BM_DensityModelRebuild/512")
large = allocs.get("BM_DensityModelRebuild/2048")
if small is None or large is None or small != large:
    sys.exit(f"bench.sh: allocs_per_rebuild differs across |R| "
             f"(/512: {small}, /2048: {large}); rebuilds allocate per point")
print(f"bench.sh: allocs_per_rebuild {small:g} at |R| = 512 and 2048")
# The maintained MGDD replica (DESIGN.md §13): a slot diff and the rebuild
# after it allocate the same O(d) vectors whatever |R| is.
updates = {b["name"]: b.get("allocs_per_update")
           for b in docs[sys.argv[1]]["benchmarks"]}
small = updates.get("BM_MgddReplicaUpdate/128")
large = updates.get("BM_MgddReplicaUpdate/512")
if small is None or large is None or small != large:
    sys.exit(f"bench.sh: allocs_per_update differs across |R| "
             f"(/128: {small}, /512: {large}); replica updates allocate "
             f"per slot")
print(f"bench.sh: allocs_per_update {small:g} at |R| = 128 and 512")
# A warm 1-d rebuild allocates its spreads, bandwidth and kernel vectors and
# nothing else: the block power sums (DESIGN.md §13) travel with the
# recycled sample buffer. A fourth allocation is an unrecycled buffer.
name = "BM_DensityModelRebuild1d/500"
if allocs.get(name) != 3:
    sys.exit(f"bench.sh: {name} allocs_per_rebuild is {allocs.get(name)}, "
             f"not 3; a 1-d rebuild allocates a buffer it should recycle")
print(f"bench.sh: {name} allocs_per_rebuild 3")
# The "off costs nothing" contract (obs/trace.h, obs/flight_recorder.h):
# disabled instrumentation allocates nothing per event.
per_op = {b["name"]: b.get("allocs_per_op")
          for b in docs[sys.argv[1]]["benchmarks"]}
for name in ("BM_ObsDisabledTraceSpan", "BM_ObsDisabledFlightRecorder"):
    if per_op.get(name) != 0:
        sys.exit(f"bench.sh: {name} allocs_per_op is {per_op.get(name)}, "
                 f"not 0; disabled instrumentation allocates")
    print(f"bench.sh: {name} allocs_per_op 0")
# The closed-form 1-d interval mass (DESIGN.md §13): a query allocates
# nothing.
name = "BM_KdeBoxQuery1d/500"
if per_op.get(name) != 0:
    sys.exit(f"bench.sh: {name} allocs_per_op is {per_op.get(name)}, "
             f"not 0; a 1-d KDE query allocates")
print(f"bench.sh: {name} allocs_per_op 0")
# The d > 1 query kernel (DESIGN.md §13): a box query allocates nothing.
for name in ("BM_KdeBoxQueryPruned2d/512", "BM_KdeBoxQueryPruned3d/512"):
    if per_op.get(name) != 0:
        sys.exit(f"bench.sh: {name} allocs_per_op is {per_op.get(name)}, "
                 f"not 0; a d > 1 KDE box query allocates")
    print(f"bench.sh: {name} allocs_per_op 0")
# The MDEF cell memo (DESIGN.md §13): an evaluation whose cells are all
# memoised allocates nothing.
name = "BM_MdefEvaluation2dScott/512"
if per_op.get(name) != 0:
    sys.exit(f"bench.sh: {name} allocs_per_op is {per_op.get(name)}, "
             f"not 0; a warm MDEF evaluation allocates")
print(f"bench.sh: {name} allocs_per_op 0")
# The variance sketch (DESIGN.md §13): once its bucket ring has reached its
# size, Add() and the StdDev() a rebuild reads allocate nothing.
for name in ("BM_VarianceSketchAdd/10000", "BM_VarianceSketchAddStdDev/10000"):
    if per_op.get(name) != 0:
        sys.exit(f"bench.sh: {name} allocs_per_op is {per_op.get(name)}, "
                 f"not 0; a steady-state sketch update allocates")
    print(f"bench.sh: {name} allocs_per_op 0")
# Per-model memory (DESIGN.md §14): a warmed 1-d model at traffic_768's
# leaf sizes held 48,940 bytes once restarts unlinked their dead expiry
# registrations (65,826 before). More than 10% above that is a regression.
name = "BM_FleetObserve/W:1024/R:102"
recorded = 48940
resident = {b["name"]: b.get("resident_bytes_per_model")
            for b in docs[sys.argv[1]]["benchmarks"]}.get(name)
if resident is None or resident > 1.10 * recorded:
    sys.exit(f"bench.sh: {name} resident_bytes_per_model is {resident}, "
             f"more than 10% above {recorded}")
print(f"bench.sh: {name} resident_bytes_per_model {resident:.0f}")
EOF

echo "bench.sh: done"
