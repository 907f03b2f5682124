#!/usr/bin/env bash
# The one-command tier-1 + sanitizer + invariant gate:
#   1. lint-invariants (blocking): tools/lint/sensord_lint.py over the
#      release preset's compile_commands.json — determinism rules (no wall
#      clock / ambient entropy / unordered-iteration-to-sink), src/-wide
#      source/test pairing (exemptions in tools/lint/test_pairing.map), and
#      header self-containment. Suppressions only via
#      tools/lint/baseline.txt (empty by policy). Configure-only: reuses the
#      release preset's compilation database, no extra full build.
#   2. Release preset: build + full ctest suite (what ships).
#   3. ASan/UBSan preset: build + the full ctest suite, soak label included,
#      via scripts/check.sh. The soak suite drives the full simulator
#      (transport retries, fault schedules, crash windows, amnesia
#      checkpoint/restore) for thousands of virtual seconds.
#      SENSORD_SOAK_SEEDS widens the crash-recovery seed sweep (default 4;
#      nightly runs export a larger value).
#   4. clang-tidy over src tests bench examples via scripts/lint.sh
#      (skipped with a notice if clang-tidy is not installed).
#   5. Quick bench run via scripts/bench.sh — proves the bench harnesses run
#      and leave valid BENCH_*.json artifacts, plus the causal-trace /
#      flight-recorder JSONL pair, re-validated here with
#      tools/trace/trace_report.py --validate (strict: malformed lines,
#      orphan spans and span-less decisions are fatal).
# Exits nonzero on the first failure.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

echo "=== ci.sh [1/5] lint-invariants (sensord_lint) ==="
cmake --preset release >/dev/null   # refresh compile_commands.json only
python3 tools/lint/sensord_lint.py \
    --compdb build/release/compile_commands.json

echo "=== ci.sh [2/5] release build + ctest ==="
cmake --preset release
cmake --build --preset release -j "${JOBS}"
ctest --test-dir build/release --output-on-failure -j "${JOBS}"

echo "=== ci.sh [3/5] asan-ubsan build + ctest (soak included) ==="
export SENSORD_SOAK_SEEDS="${SENSORD_SOAK_SEEDS:-4}"
scripts/check.sh

echo "=== ci.sh [4/5] clang-tidy ==="
scripts/lint.sh

echo "=== ci.sh [5/5] quick bench + BENCH_*.json + trace validation ==="
SENSORD_QUICK=1 scripts/bench.sh
# bench.sh already validates its own artifacts; gate on them here explicitly
# so a future bench.sh refactor cannot silently drop the check.
python3 tools/trace/trace_report.py TRACE_demo.jsonl \
    --flight FLIGHT_demo.jsonl --validate

echo "ci.sh: all gates green"
