#!/usr/bin/env python3
"""Builds and runs the sensord perf benchmark (see README.md next to this file).

One workload run:
    python3 bench/perf/run.py --workload d3_1d --seed 7 --seconds 10 --trace 0
prints `workload metric value unit` lines and, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.

The suite:
    python3 bench/perf/run.py [--seed S] [--repeats N] [--workloads a,b]
        [--seconds T] [--trace] [--json OUT] [--ledger] [--compare BASE]
runs each workload N times (one fresh process per run, one workload at a
time), prints the median and quartiles of every end-to-end metric, and with
--trace the per-layer table of one traced run per workload. It exits non-zero
if any correctness gate fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "perf"
BINARY = BUILD / "perf_bench"
LEDGER = HERE / "ledger.jsonl"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

WORKLOADS = ["d3_1d", "mgdd_2d", "traffic_768", "d3_lossy"]
RUN_TIMEOUT_S = 170

# Detection-quality floors (precision, recall) against exact ground truth.
# Set well below the spread over seeds; a change that trips one broke
# detection, whatever it did to speed.
QUALITY_FLOORS = {
    "d3_1d": (0.60, 0.60),
    "mgdd_2d": (0.70, 0.30),
    "d3_lossy": (0.60, 0.60),
}

END_TO_END = [
    # name, unit, how to read it off one untraced run; the timings are
    # medians over the run's blocks of 1000 rounds
    ("readings_per_s", "readings/s", lambda r: r["readings_per_s"]),
    ("round_ms_p50", "ms", lambda r: r["round_ms_p50"]),
    ("round_ms_p99", "ms", lambda r: r["round_ms_p99"]),
    ("setup_s", "s", lambda r: r["setup_s"]),
    ("peak_rss_mb", "MiB", lambda r: r["rss_peak_mb"] - r["rss_base_mb"]),
    ("msgs_per_reading", "msgs/reading",
     lambda r: r["timed"].get("net.messages.total", 0.0) / readings(r)),
]


def readings(run):
    """Readings taken in the timed rounds."""
    return run["leaves"] * run["rounds"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build():
    """Configures (once) and builds perf_bench; exits non-zero on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"run.py: no sensord sources under {ROOT}; cannot build")
        sys.exit(2)
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "--target", "perf_bench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(proc.stderr[-4000:])
            log(f"run.py: build step failed: {' '.join(cmd)}")
            sys.exit(2)


# -------------------------------------------------------------------- run

def perf_bench(workload, seed, seconds=None, rounds=None, spans=None):
    """One fresh perf_bench process; returns its JSON, or None if it died."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed)]
    if rounds is not None:
        cmd += ["--rounds", str(rounds)]
    else:
        cmd += ["--seconds", str(seconds)]
    if spans is not None:
        cmd += ["--trace", "--spans", str(spans)]
    env = dict(os.environ)
    # WorkerPool crashes at >= 2 threads (README.md): serial engine only.
    env.pop("SENSORD_THREADS", None)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} seed {seed} timed out")
        return None
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        log(f"run.py: {workload} seed {seed} exited {proc.returncode}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def print_run_facts(run):
    """The run's round count and detection quality (gates, not metrics)."""
    w = run["workload"]
    print(f"{w} rounds {run['rounds']} count (timed; warm-up "
          f"{run['warmup_rounds']})")
    q = run["quality"]
    for key in ("precision", "recall"):
        value = "n/a" if q is None else f"{q[key]:.4f} fraction"
        print(f"{w} {key} {value}")


def gate_failures(run):
    """Correctness gates on one run; returns the list of failed gates."""
    failed = []
    total = attempted_operations(run)
    if run["threads"] != 1:
        failed.append(f"threads={run['threads']}, not the serial engine")
    if run["ingest_accepted"] != total:
        failed.append(f"ingest.accepted {run['ingest_accepted']:.0f} != "
                      f"leaves x rounds {total}")
    if run["ingest_rejected"]:
        failed.append(f"{run['ingest_rejected']:.0f} ingest rejections")
    if run["abandoned"]:
        failed.append(f"{run['abandoned']:.0f} abandoned messages")
    if run["containment_violations"]:
        failed.append(f"{run['containment_violations']} Theorem-3 "
                      "containment violations")
    floors = QUALITY_FLOORS.get(run["workload"])
    if floors is not None:
        q = run["quality"]
        if run["detections"] == 0 or q is None:
            failed.append("no detections")
        elif q["precision"] < floors[0] or q["recall"] < floors[1]:
            failed.append(f"precision {q['precision']:.3f} / recall "
                          f"{q['recall']:.3f} below {floors}")
    return failed


def failed_operations(run):
    """Readings lost to the ingest firewall, abandoned messages and
    containment violations, over the whole run."""
    return int(run["ingest_rejected"] + run["abandoned"]
               + run["containment_violations"])


def attempted_operations(run):
    """Readings taken over the whole run, warm-up included."""
    return run["leaves"] * (run["warmup_rounds"] + run["rounds"])


def end_to_end(run):
    return {name: fn(run) for name, _, fn in END_TO_END}


def per_layer(traced, untraced_rps):
    """The per-layer table of one traced run; untraced_rps is the same
    workload's readings_per_s with tracing off."""
    c = traced["timed"]

    def get(name):
        return c.get(name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    mgdd = traced["detector"] == "mgdd"
    round_ms = traced["round_ns_total"] / 1e6
    observe_ms = get("core.density_model.observe_ns.sum") / 1e6
    add_ms = get("stream.chain_sample.add_ns.sum") / 1e6
    rebuild_ms = get("core.density_model.rebuild_ns.sum") / 1e6
    rebuilds = get("core.density_model.estimator_rebuilds")
    query_calls = (get("core.mgdd.leaf.mdef_evaluations") if mgdd
                   else get("stats.kde.box_queries"))
    query_ns = traced["probe"]["query_ns"]
    query_ms = query_ns * query_calls / 1e6
    create_ns = traced["probe"]["create_ns"]
    replica_builds = min(get("core.mgdd.leaf.updates_applied"),
                         get("core.mgdd.leaf.mdef_evaluations"))
    replica_ms = create_ns * replica_builds / 1e6
    source_ms = traced["harness"]["source_ns"] / 1e6
    observer_ms = traced["harness"]["observer_ns"] / 1e6
    residual_ms = round_ms - (observe_ms + rebuild_ms + query_ms + replica_ms
                              + source_ms + observer_ms)
    messages = get("net.messages.total")
    traced_rps = end_to_end(traced)["readings_per_s"]
    return {
        "stream.chain_sample.add_ms": (add_ms, "ms"),
        "stream.chain_sample.adds": (get("stream.chain_sample.adds"), "count"),
        "stream.chain_sample.replacements":
            (get("stream.chain_sample.replacements"), "count"),
        "stream.chain_sample.expirations":
            (get("stream.chain_sample.expirations"), "count"),
        "core.density_model.observe_self_ms": (observe_ms - add_ms, "ms"),
        "core.density_model.rebuild_ms": (rebuild_ms, "ms"),
        "core.density_model.estimator_rebuilds": (rebuilds, "count"),
        "core.density_model.rebuild_ratio":
            (ratio(rebuilds,
                   rebuilds + get("core.density_model.estimator_cache_hits")),
             "ratio"),
        "stats.kde.query_ns": (query_ns, "ns"),
        "stats.kde.query_ms_est": (query_ms, "ms"),
        "stats.kde.box_queries": (get("stats.kde.box_queries"), "count"),
        "stats.kde.terms_per_query_mean":
            (ratio(get("stats.kde.terms_per_query.sum"),
                   get("stats.kde.terms_per_query.count")), "terms"),
        "stats.kde.batch_swept_terms":
            (get("stats.kde.batch_swept_terms"), "count"),
        "stats.kde.create_ns": (create_ns, "ns"),
        "core.mgdd.replica_rebuild_ms_est": (replica_ms, "ms"),
        "core.d3.parent.rechecks": (get("core.d3.parent.rechecks"), "count"),
        "core.d3.confirm_ratio":
            (ratio(get("core.d3.parent.confirms"),
                   get("core.d3.parent.rechecks")), "ratio"),
        "core.mgdd.leaf.mdef_evaluations":
            (get("core.mgdd.leaf.mdef_evaluations"), "count"),
        "core.mgdd.leaf.updates_applied":
            (get("core.mgdd.leaf.updates_applied"), "count"),
        "core.mgdd.root.updates_originated":
            (get("core.mgdd.root.updates_originated"), "count"),
        "net.retries": (get("net.retries"), "count"),
        "net.timeouts": (get("net.timeouts"), "count"),
        "net.acks": (get("net.acks"), "count"),
        "net.dup_suppressed": (get("net.dup_suppressed"), "count"),
        "net.abandoned": (get("net.abandoned"), "count"),
        "net.retry_ratio": (ratio(get("net.retries"), messages), "ratio"),
        "net.numbers_per_message":
            (ratio(get("net.numbers.total"), messages), "numbers/msg"),
        "other.residual_ms": (residual_ms, "ms"),
        "layer_coverage": (1.0 - ratio(residual_ms, round_ms), "ratio"),
        "setup.instantiate_ms": (traced["instantiate_ms"], "ms"),
        "setup.schedule_ms": (traced["schedule_ms"], "ms"),
        "ingest.accepted": (get("ingest.accepted"), "count"),
        "ingest.rejected":
            (get("ingest.rejected.nonfinite") + get("ingest.rejected.range")
             + get("ingest.rejected.stuck"), "count"),
        "bench.source_ms": (source_ms, "ms"),
        "bench.observer_ms": (observer_ms, "ms"),
        "obs.trace_overhead_pct":
            (100.0 * (1.0 - ratio(traced_rps, untraced_rps)), "%"),
    }


def traced_twin(workload, seed, plain):
    """Re-runs `plain`'s exact rounds with tracing on. Returns (traced run,
    failures); tracing must not change the detections or the traffic."""
    spans = BUILD / "spans" / f"{workload}_{seed}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    traced = perf_bench(workload, seed, rounds=plain["rounds"], spans=spans)
    if traced is None:
        return None, ["traced run crashed"]
    failures = gate_failures(traced)
    if (traced["digest"] != plain["digest"]
            or traced["messages_total"] != plain["messages_total"]):
        failures.append("tracing changed the run: digest "
                        f"{plain['digest']} -> {traced['digest']}, messages "
                        f"{plain['messages_total']} -> "
                        f"{traced['messages_total']}")
    return traced, failures


# ------------------------------------------------------------ driver mode

def single(args):
    """One run of one workload: the benchmark driver's interface."""
    build()
    plain = perf_bench(args.workload, args.seed, seconds=args.seconds)
    if plain is None:
        sys.exit(1)
    failures = gate_failures(plain)
    if args.trace:
        traced, more = traced_twin(args.workload, args.seed, plain)
        if traced is None:
            sys.exit(1)
        failures += more
        table = per_layer(traced, end_to_end(plain)["readings_per_s"])
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in table.items()}
    else:
        values = end_to_end(plain)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in END_TO_END}
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print_run_facts(plain)
    for f in failures:
        print(f"{args.workload} GATE FAILED: {f}")
    print(json.dumps({"correct": not failures,
                      "attempted": attempted_operations(plain),
                      "failed": failed_operations(plain),
                      "metrics": metrics}))


# ------------------------------------------------------------- suite mode

def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def bounds():
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def suite(args):
    build()
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown:
        log(f"run.py: unknown workloads {unknown}; known: {WORKLOADS}")
        sys.exit(2)
    seconds = args.seconds or json.loads(
        BENCHMARK_JSON.read_text())["run_seconds"]
    summary = {"commit": commit(), "nproc": os.cpu_count(), "seed": args.seed,
               "repeats": args.repeats, "seconds": seconds, "workloads": {}}
    all_failures = []
    for w in workloads:
        runs = []
        for i in range(args.repeats):
            started = time.time()
            run = perf_bench(w, args.seed, seconds=seconds)
            if run is None:
                all_failures.append(f"{w}: run {i} crashed (all readings "
                                    "failed)")
                continue
            failures = gate_failures(run)
            all_failures += [f"{w}: {f}" for f in failures]
            runs.append(run)
            log(f"  {w} run {i + 1}/{args.repeats}: "
                f"{end_to_end(run)['readings_per_s']:.0f} readings/s, "
                f"{run['rounds']} rounds, {time.time() - started:.1f} s wall")
        if not runs:
            continue
        entry = {"rounds": [r["rounds"] for r in runs], "metrics": {}}
        for name, unit, fn in END_TO_END:
            values = [fn(r) for r in runs]
            q1, med, q3 = quartiles(values)
            entry["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                      "unit": unit, "values": values}
            print(f"{w} {name} {med:.6g} {unit}  [q1 {q1:.6g}, q3 {q3:.6g}]")
        if runs[0]["quality"] is not None:
            entry["quality"] = {k: runs[0]["quality"][k]
                                for k in ("precision", "recall")}
        print_run_facts(runs[0])
        if args.trace:
            traced, failures = traced_twin(w, args.seed, runs[0])
            all_failures += [f"{w}: {f}" for f in failures]
            if traced is not None:
                table = per_layer(
                    traced, entry["metrics"]["readings_per_s"]["median"])
                entry["layers"] = {k: v for k, (v, _) in table.items()}
                for name, (value, unit) in table.items():
                    print(f"{w} {name} {value:.6g} {unit}")
        summary["workloads"][w] = entry
    for f in all_failures:
        print(f"GATE FAILED: {f}")
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")
    if args.ledger:
        with LEDGER.open("a") as f:
            f.write(json.dumps(ledger_line(summary), sort_keys=True) + "\n")
    if args.compare:
        compare(load_summary(args.compare), summary)
    sys.exit(1 if all_failures else 0)


def ledger_line(summary):
    line = {k: summary[k] for k in ("commit", "nproc", "seed", "repeats",
                                    "seconds")}
    line["workloads"] = {}
    for w, entry in summary["workloads"].items():
        out = {"metrics": {m: {k: v[k] for k in ("median", "q1", "q3",
                                                  "unit")}
                           for m, v in entry["metrics"].items()},
               "rounds": statistics.median(entry["rounds"])}
        for key in ("quality", "layers"):
            if key in entry:
                out[key] = entry[key]
        line["workloads"][w] = out
    return line


def load_summary(path):
    """A --json summary, or a ledger file (its last line)."""
    text = Path(path).read_text().strip()
    if path.endswith(".jsonl"):
        text = text.splitlines()[-1]
    return json.loads(text)


def compare(base, new):
    """better/same/worse/unresolved per (workload, metric) under the
    BENCHMARK.json bounds. Unresolved: a side's quartile spread exceeds the
    bound."""
    limits = bounds()
    units = {name: unit for name, unit, _ in END_TO_END}
    print(f"\ncompare {base.get('commit', '?')} -> {new.get('commit', '?')}")
    for w, entry in new["workloads"].items():
        if w not in base["workloads"]:
            continue
        for name, m in entry["metrics"].items():
            b = base["workloads"][w]["metrics"].get(name)
            if b is None or name not in limits:
                continue
            bound, better = limits[name]
            sign = 1.0 if better == "lower" else -1.0
            change = sign * (m["median"] - b["median"]) / b["median"]
            spread = max((s["q3"] - s["q1"]) / s["median"] for s in (m, b))
            if spread > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict = "worse"
            elif change < -bound:
                verdict = "better"
            else:
                verdict = "same"
            print(f"{w} {name} {b['median']:.6g} -> {m['median']:.6g} "
                  f"{units[name]} ({100 * sign * change:+.2f}%, bound "
                  f"{100 * bound:.1f}%): {verdict}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="run one workload once (driver mode)")
    p.add_argument("--workloads", help="comma-separated subset (suite mode)")
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--seconds", type=float,
                   help="timed seconds per run (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=[0, 1], help="per-layer metrics from a traced run")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--json", help="write the suite summary here")
    p.add_argument("--ledger", action="store_true",
                   help=f"append the summary to {LEDGER.relative_to(ROOT)}")
    p.add_argument("--compare", metavar="BASE",
                   help="compare with a --json summary or a ledger .jsonl")
    args = p.parse_args()
    if args.workload is not None:
        if args.workload not in WORKLOADS:
            p.error(f"unknown workload {args.workload}; known: {WORKLOADS}")
        if args.seconds is None:
            args.seconds = json.loads(
                BENCHMARK_JSON.read_text())["run_seconds"]
        single(args)
    else:
        suite(args)


if __name__ == "__main__":
    main()
