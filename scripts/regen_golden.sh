#!/usr/bin/env bash
# Regenerates both end-to-end goldens from the current build:
#   tests/golden/e2e_outliers.txt     (GoldenE2eTest.DetectionHistoryMatchesGolden)
#   tests/golden/recovery_history.txt (GoldenE2eTest.RecoveryHistoryMatchesGolden)
#
# Run after an INTENTIONAL behaviour change (detector logic, transport,
# fault scheduling, crash recovery, RNG consumption), review the diff, and
# commit the new goldens together with the change that caused them.
#
# Afterwards it prints, per golden, how many decisions moved: the decision
# lines (one per outlier report, the lines carrying node=) before and after,
# and how many of them are only in the old file or only in the new one,
# compared as sorted lines so a reordering alone moves nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
GOLDENS=(tests/golden/e2e_outliers.txt tests/golden/recovery_history.txt)

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j"$(nproc)" --target golden_e2e_test

old_dir="$(mktemp -d)"
trap 'rm -rf "$old_dir"' EXIT
for golden in "${GOLDENS[@]}"; do
  cp "$golden" "$old_dir/$(basename "$golden")"
done

SENSORD_REGEN_GOLDEN=1 \
  "$BUILD_DIR"/tests/golden_e2e_test \
  --gtest_filter='GoldenE2eTest.*MatchesGolden'

decisions() { grep ' node=' "$1" | LC_ALL=C sort || true; }

echo "--- regenerated tests/golden/e2e_outliers.txt and" \
     "tests/golden/recovery_history.txt ---"
for golden in "${GOLDENS[@]}"; do
  decisions "$old_dir/$(basename "$golden")" > "$old_dir/before"
  decisions "$golden" > "$old_dir/after"
  only_old=$(LC_ALL=C comm -23 "$old_dir/before" "$old_dir/after" | wc -l)
  only_new=$(LC_ALL=C comm -13 "$old_dir/before" "$old_dir/after" | wc -l)
  printf '%s: decisions %d -> %d, only in old %d, only in new %d\n' \
    "$golden" "$(wc -l < "$old_dir/before")" "$(wc -l < "$old_dir/after")" \
    "$only_old" "$only_new"
done
git diff --stat -- "${GOLDENS[@]}" || true
