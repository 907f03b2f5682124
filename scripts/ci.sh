#!/usr/bin/env bash
# The one-command tier-1 + sanitizer + invariant gate:
#   1. lint-invariants (blocking): tools/lint/sensord_lint.py over the
#      release preset's compile_commands.json — determinism rules (no wall
#      clock / ambient entropy / unordered-iteration-to-sink), thread-safety
#      annotation completeness, src/-wide source/test pairing (the PR 3
#      net/+core/ gate, generalized; exemptions in
#      tools/lint/test_pairing.map), and header self-containment.
#      Suppressions only via tools/lint/baseline.txt (empty by policy).
#      When a clang toolchain is present the same step also builds the
#      library with -Wthread-safety promoted to errors
#      (SENSORD_THREAD_SAFETY=ON). Configure-only: reuses the release
#      preset's compilation database, no extra full build.
#   2. Release preset: build + full ctest suite (what ships).
#   3. ASan/UBSan preset: build + ctest minus the soak label (soak sweeps
#      are long under ASan; they get their own sanitizer pass in step 4),
#      via scripts/check.sh.
#   4. TSan preset: build + the soak-labelled suite, which drives the full
#      simulator (transport retries, fault schedules, crash windows, amnesia
#      checkpoint/restore) for thousands of virtual seconds, plus the
#      metrics registry's concurrent-writer tests — the only tests that
#      spawn threads — so its lock-free counters and histograms run under
#      the race detector. SENSORD_SOAK_SEEDS widens the crash-recovery seed
#      sweep (default 4; nightly runs export a larger value).
#   5. clang-tidy over src tests bench examples via scripts/lint.sh
#      (skipped with a notice if clang-tidy is not installed).
#   6. Quick bench run via scripts/bench.sh — proves the bench harnesses run
#      and leave valid BENCH_*.json artifacts, plus the causal-trace /
#      flight-recorder JSONL pair, re-validated here with
#      tools/trace/trace_report.py --validate (strict: malformed lines,
#      orphan spans and span-less decisions are fatal).
# Exits nonzero on the first failure.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

echo "=== ci.sh [1/6] lint-invariants (sensord_lint + thread-safety) ==="
cmake --preset release >/dev/null   # refresh compile_commands.json only
python3 tools/lint/sensord_lint.py \
    --compdb build/release/compile_commands.json
CLANGXX="${CLANGXX:-}"
if [[ -z "${CLANGXX}" ]]; then
  for candidate in clang++ clang++-19 clang++-18 clang++-17 clang++-16 \
                   clang++-15 clang++-14; do
    if command -v "${candidate}" >/dev/null 2>&1; then
      CLANGXX="${candidate}"
      break
    fi
  done
fi
if [[ -n "${CLANGXX}" ]]; then
  echo "lint-invariants: ${CLANGXX} -Wthread-safety build (errors fatal)"
  cmake -B build/thread-safety -S . \
        -DCMAKE_CXX_COMPILER="${CLANGXX}" \
        -DCMAKE_BUILD_TYPE=Release \
        -DSENSORD_THREAD_SAFETY=ON \
        -DSENSORD_BUILD_TESTS=OFF -DSENSORD_BUILD_BENCHMARKS=OFF \
        -DSENSORD_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build/thread-safety -j "${JOBS}"
else
  echo "lint-invariants: no clang++ on PATH; -Wthread-safety build skipped" \
       "(the sensord_lint thread-annotation rule above still gates" \
       "annotation completeness)" >&2
fi

echo "=== ci.sh [2/6] release build + ctest ==="
cmake --preset release
cmake --build --preset release -j "${JOBS}"
ctest --test-dir build/release --output-on-failure -j "${JOBS}"

echo "=== ci.sh [3/6] asan-ubsan build + ctest (minus soak) ==="
scripts/check.sh -LE soak

echo "=== ci.sh [4/6] tsan build + soak suite + concurrent metrics ==="
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"
export SENSORD_SOAK_SEEDS="${SENSORD_SOAK_SEEDS:-4}"
cmake --preset tsan
cmake --build --preset tsan -j "${JOBS}"
ctest --test-dir build/tsan --output-on-failure -j "${JOBS}" -L soak
ctest --test-dir build/tsan --output-on-failure \
    -R '^(CounterTest|HistogramTest)\.Concurrent'

echo "=== ci.sh [5/6] clang-tidy ==="
scripts/lint.sh

echo "=== ci.sh [6/6] quick bench + BENCH_*.json + trace validation ==="
SENSORD_QUICK=1 scripts/bench.sh
# bench.sh already validates its own artifacts; gate on them here explicitly
# so a future bench.sh refactor cannot silently drop the check.
python3 tools/trace/trace_report.py TRACE_demo.jsonl \
    --flight FLIGHT_demo.jsonl --validate

echo "ci.sh: all gates green"
