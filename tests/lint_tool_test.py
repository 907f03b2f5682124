#!/usr/bin/env python3
# Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
"""Fixture-driven tests for tools/lint/sensord_lint.py.

Each rule must fire exactly once on its fixture in tests/lint_fixtures/ and
stay silent on the clean fixtures — pinning both the detection and the
false-positive behavior. Run directly or via ctest (lint_tool_test).
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
LINT = os.path.join(REPO_ROOT, "tools", "lint", "sensord_lint.py")
FIXTURES = os.path.join("tests", "lint_fixtures")

sys.path.insert(0, os.path.join(REPO_ROOT, "tools", "lint"))
import sensord_lint  # noqa: E402


def run_lint(*args):
    proc = subprocess.run(
        [sys.executable, LINT, "--root", REPO_ROOT, "--no-clang-query"]
        + list(args),
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def count_rule(output, rule):
    return output.count("[%s]" % rule)


class DeterminismClockRule(unittest.TestCase):
    def test_fires_exactly_once_on_fixture(self):
        code, out = run_lint("--rules", "determinism", "--scan",
                             os.path.join(FIXTURES, "clock_violation.cc"))
        self.assertEqual(code, 1, out)
        self.assertEqual(count_rule(out, "determinism-clock"), 1, out)
        self.assertIn("steady_clock", out)
        self.assertEqual(count_rule(out, "determinism-unordered"), 0, out)

    def test_flags_system_clock_added_to_core(self):
        # The acceptance scenario: a patch adds a wall-clock read to
        # src/core/. Simulated in a scratch file under a scratch root.
        with tempfile.TemporaryDirectory() as tmp:
            core = os.path.join(tmp, "src", "core")
            os.makedirs(core)
            with open(os.path.join(core, "patched.cc"), "w") as f:
                f.write("#include <chrono>\n"
                        "double Now() {\n"
                        "  return std::chrono::system_clock::now()"
                        ".time_since_epoch().count();\n"
                        "}\n")
            code, out = run_lint("--root", tmp, "--rules", "determinism")
            self.assertEqual(code, 1, out)
            self.assertEqual(count_rule(out, "determinism-clock"), 1, out)
            self.assertIn("system_clock", out)

    def test_allowlisted_sink_is_clean(self):
        # src/obs/trace.cc reads steady_clock but is the allowlisted sink.
        code, out = run_lint("--rules", "determinism", "--scan",
                             "src/obs/trace.cc")
        self.assertEqual(code, 0, out)


class DeterminismUnorderedRule(unittest.TestCase):
    def test_fires_exactly_thrice_on_fixture(self):
        code, out = run_lint("--rules", "determinism", "--scan",
                             os.path.join(FIXTURES, "unordered_violation.cc"))
        self.assertEqual(code, 1, out)
        self.assertEqual(count_rule(out, "determinism-unordered"), 3, out)
        self.assertIn("readings", out)
        self.assertIn("pending", out)
        self.assertIn("last_seen", out)
        self.assertEqual(count_rule(out, "determinism-clock"), 0, out)


class CleanFixture(unittest.TestCase):
    def test_no_rule_fires(self):
        code, out = run_lint("--rules", "determinism", "--scan",
                             os.path.join(FIXTURES, "clean.cc"))
        self.assertEqual(code, 0, out)
        self.assertIn("clean", out)


class HeaderHygieneRule(unittest.TestCase):
    def test_violation_and_clean_headers(self):
        code, out = run_lint("--rules", "headers", "--scan",
                             os.path.join(FIXTURES, "header_violation.h"),
                             os.path.join(FIXTURES, "header_clean.h"))
        self.assertEqual(code, 1, out)
        self.assertEqual(count_rule(out, "header-hygiene"), 1, out)
        self.assertIn("header_violation.h", out)
        self.assertNotIn("header_clean.h:", out)


class TestPairingRule(unittest.TestCase):
    def _scratch_repo(self, tmp, with_test, with_map_line=None):
        os.makedirs(os.path.join(tmp, "src", "core"))
        os.makedirs(os.path.join(tmp, "tests"))
        os.makedirs(os.path.join(tmp, "tools", "lint"))
        with open(os.path.join(tmp, "src", "core", "widget.cc"), "w") as f:
            f.write("int w;\n")
        if with_test:
            with open(os.path.join(tmp, "tests", "widget_test.cc"),
                      "w") as f:
                f.write("int t;\n")
        if with_map_line:
            with open(os.path.join(tmp, "tools", "lint",
                                   "test_pairing.map"), "w") as f:
                f.write(with_map_line + "\n")

    def test_missing_test_fires(self):
        with tempfile.TemporaryDirectory() as tmp:
            self._scratch_repo(tmp, with_test=False)
            code, out = run_lint("--root", tmp, "--rules", "pairing")
            self.assertEqual(code, 1, out)
            self.assertEqual(count_rule(out, "test-pairing"), 1, out)

    def test_paired_test_is_clean(self):
        with tempfile.TemporaryDirectory() as tmp:
            self._scratch_repo(tmp, with_test=True)
            code, out = run_lint("--root", tmp, "--rules", "pairing")
            self.assertEqual(code, 0, out)

    def test_exemption_line_suppresses(self):
        with tempfile.TemporaryDirectory() as tmp:
            self._scratch_repo(tmp, with_test=False,
                               with_map_line="src/core/widget.cc -")
            code, out = run_lint("--root", tmp, "--rules", "pairing")
            self.assertEqual(code, 0, out)

    def test_repo_pairing_is_clean(self):
        code, out = run_lint("--rules", "pairing")
        self.assertEqual(code, 0, out)


class Baseline(unittest.TestCase):
    def test_baseline_suppresses_and_stale_entries_fail(self):
        fixture = os.path.join(FIXTURES, "clock_violation.cc")
        with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                         delete=False) as f:
            f.write("determinism-clock:%s:steady_clock\n" % fixture)
            baseline = f.name
        try:
            code, out = run_lint("--rules", "determinism", "--scan", fixture,
                                 "--baseline", baseline)
            self.assertEqual(code, 0, out)  # suppressed
            # Against the clean fixture the entry is stale: must fail.
            code, out = run_lint("--rules", "determinism", "--scan",
                                 os.path.join(FIXTURES, "clean.cc"),
                                 "--baseline", baseline)
            self.assertEqual(code, 1, out)
            self.assertIn("stale-baseline", out)
        finally:
            os.unlink(baseline)

    def test_committed_baseline_is_empty(self):
        entries = sensord_lint.load_list_file(
            os.path.join(REPO_ROOT, "tools", "lint", "baseline.txt"))
        self.assertEqual(entries, set(),
                         "tools/lint/baseline.txt must stay empty: fix "
                         "violations instead of baselining them")


class StripCommentsAndStrings(unittest.TestCase):
    def test_preserves_offsets_and_blanks_content(self):
        text = 'int a; // rand()\nconst char* s = "mt19937";\n/* time() */\n'
        code = sensord_lint.strip_comments_and_strings(text)
        self.assertEqual(len(code), len(text))
        self.assertEqual(code.count("\n"), text.count("\n"))
        for banned in ("rand", "mt19937", "time"):
            self.assertNotIn(banned, code)
        self.assertIn("int a;", code)


if __name__ == "__main__":
    unittest.main(verbosity=2)
