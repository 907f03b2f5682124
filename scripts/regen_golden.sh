#!/usr/bin/env bash
# Regenerates both end-to-end goldens from the current build:
#   tests/golden/e2e_outliers.txt     (GoldenE2eTest.DetectionHistoryMatchesGolden)
#   tests/golden/recovery_history.txt (GoldenE2eTest.RecoveryHistoryMatchesGolden)
#
# Run after an INTENTIONAL behaviour change (detector logic, transport,
# fault scheduling, crash recovery, RNG consumption), review the diff, and
# commit the new goldens together with the change that caused them.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j"$(nproc)" --target golden_e2e_test

SENSORD_REGEN_GOLDEN=1 \
  "$BUILD_DIR"/tests/golden_e2e_test \
  --gtest_filter='GoldenE2eTest.*MatchesGolden'

echo "--- regenerated tests/golden/e2e_outliers.txt and" \
     "tests/golden/recovery_history.txt ---"
git diff --stat -- tests/golden/e2e_outliers.txt \
                   tests/golden/recovery_history.txt || true
