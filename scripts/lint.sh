#!/usr/bin/env bash
# Runs clang-tidy (config: .clang-tidy) over the sensord sources.
#
# Usage: scripts/lint.sh [path ...]
#   With no arguments lints src tests bench examples (the full tree, now
#   that the PR 1 lint debt is paid); pass explicit roots to narrow the
#   sweep. Exits nonzero on any violation (WarningsAsErrors: '*' in
#   .clang-tidy).
#
# Project-specific invariants (determinism, header hygiene, test pairing)
# are NOT here — they live in
# tools/lint/sensord_lint.py, which runs even without a clang toolchain.
#
# clang-tidy needs a compilation database; we configure the `release`
# CMake preset (CMAKE_EXPORT_COMPILE_COMMANDS is always on) and point
# clang-tidy at its build directory.
set -euo pipefail

cd "$(dirname "$0")/.."

CLANG_TIDY="${CLANG_TIDY:-}"
if [[ -n "${CLANG_TIDY}" ]] && ! command -v "${CLANG_TIDY}" >/dev/null 2>&1; then
  echo "lint.sh: CLANG_TIDY='${CLANG_TIDY}' is not an executable" >&2
  exit 2
fi
if [[ -z "${CLANG_TIDY}" ]]; then
  for candidate in clang-tidy clang-tidy-19 clang-tidy-18 clang-tidy-17 \
                   clang-tidy-16 clang-tidy-15 clang-tidy-14; do
    if command -v "${candidate}" >/dev/null 2>&1; then
      CLANG_TIDY="${candidate}"
      break
    fi
  done
fi
if [[ -z "${CLANG_TIDY}" ]]; then
  echo "lint.sh: clang-tidy not found on PATH; skipping lint (install" \
       "clang-tidy or set CLANG_TIDY=/path/to/clang-tidy)" >&2
  exit 0
fi

BUILD_DIR=build/release
cmake --preset release >/dev/null

roots=("$@")
if [[ ${#roots[@]} -eq 0 ]]; then
  roots=(src tests bench examples)
fi

# lint_fixtures are deliberately-broken inputs for sensord_lint's own test
# suite, not part of any build target: clang-tidy must not see them.
mapfile -t files < <(find "${roots[@]}" -name '*.cc' \
                          -not -path '*/lint_fixtures/*' | sort)
if [[ ${#files[@]} -eq 0 ]]; then
  echo "lint.sh: no sources found under: ${roots[*]}" >&2
  exit 1
fi

echo "lint.sh: ${CLANG_TIDY} over ${#files[@]} files (${roots[*]})"
status=0
"${CLANG_TIDY}" -p "${BUILD_DIR}" --quiet "${files[@]}" || status=$?
if [[ ${status} -ne 0 ]]; then
  echo "lint.sh: clang-tidy reported violations (exit ${status})" >&2
  exit "${status}"
fi
echo "lint.sh: clean"
