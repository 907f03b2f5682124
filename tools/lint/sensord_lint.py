#!/usr/bin/env python3
# Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
"""sensord_lint: project-invariant static analysis for the sensord tree.

Generic clang-tidy (see .clang-tidy) catches generic bugs; this checker
enforces the invariants that make the *simulator* trustworthy and that no
off-the-shelf tool can express:

  determinism-clock     No wall-clock or ambient-entropy source outside the
                        allowlisted sinks (tools/lint/determinism_allowlist).
                        Every run must replay bit-identically under a seed.
  determinism-unordered No iteration over std::unordered_{map,set,...} whose
                        loop body reaches a deterministic sink (OutlierEvent,
                        message Send/Transmit, exporter/file output).
                        Hash-iteration order is unspecified and would leak
                        into emitted events and golden files.
  test-pairing          Every src/**/*.cc translation unit has a matching
                        tests/<name>_test.cc, modulo the explicit map in
                        tools/lint/test_pairing.map.
  header-hygiene        Every header under src/ compiles standalone
                        (self-containment), using the release preset's
                        compile_commands.json flags.

Violations are suppressed ONLY via the committed tools/lint/baseline.txt
(one violation key per line); stale baseline entries are themselves errors,
so the baseline can only shrink. The file is empty at merge and should stay
that way: fix the code, don't baseline it.

Exit codes: 0 clean, 1 violations, 2 usage/configuration error.

Usage:
  tools/lint/sensord_lint.py --compdb build/release/compile_commands.json
  tools/lint/sensord_lint.py --rules determinism --scan path.cc ...
"""

import argparse
import bisect
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile

RULE_DETERMINISM_CLOCK = "determinism-clock"
RULE_DETERMINISM_UNORDERED = "determinism-unordered"
RULE_TEST_PAIRING = "test-pairing"
RULE_HEADER_HYGIENE = "header-hygiene"

RULE_GROUPS = {
    "determinism": (RULE_DETERMINISM_CLOCK, RULE_DETERMINISM_UNORDERED),
    "pairing": (RULE_TEST_PAIRING,),
    "headers": (RULE_HEADER_HYGIENE,),
}
DEFAULT_GROUPS = ("determinism", "pairing", "headers")

# Identifiers that read ambient time or entropy. Any appearance (token-exact,
# comments and strings stripped) is a violation outside the allowlist.
BANNED_ALWAYS = {
    # clocks
    "system_clock": "reads the wall clock; use event-queue virtual time",
    "steady_clock": "reads the host monotonic clock; use event-queue "
                    "virtual time (obs::MonotonicNowNs is the one sink)",
    "high_resolution_clock": "reads the host clock; use event-queue "
                             "virtual time",
    "clock_gettime": "reads the host clock; use event-queue virtual time",
    "gettimeofday": "reads the wall clock; use event-queue virtual time",
    "timespec_get": "reads the wall clock; use event-queue virtual time",
    "localtime": "reads the wall clock; use event-queue virtual time",
    "gmtime": "reads the wall clock; use event-queue virtual time",
    # entropy
    "random_device": "ambient entropy breaks seeded replay; seed a "
                     "sensord::Rng instead",
    "mt19937": "unseeded-by-default std engine; use sensord::Rng",
    "mt19937_64": "unseeded-by-default std engine; use sensord::Rng",
    "minstd_rand": "std engine; use sensord::Rng",
    "minstd_rand0": "std engine; use sensord::Rng",
    "default_random_engine": "implementation-defined engine; use "
                             "sensord::Rng",
    "ranlux24": "std engine; use sensord::Rng",
    "ranlux48": "std engine; use sensord::Rng",
    "knuth_b": "std engine; use sensord::Rng",
    "random_shuffle": "uses an unspecified global source; use an explicit "
                      "sensord::Rng",
    "srand": "global C RNG state; use sensord::Rng",
    "rand_r": "C RNG; use sensord::Rng",
    "drand48": "global C RNG state; use sensord::Rng",
    "lrand48": "global C RNG state; use sensord::Rng",
    "mrand48": "global C RNG state; use sensord::Rng",
}
# Flagged only in call position (followed by '(') and not as a member access
# (preceded by '.' or '->'): too many legitimate identifiers share the name.
BANNED_CALLS = {
    "time": "reads the wall clock; use event-queue virtual time",
    "clock": "reads the process clock; use event-queue virtual time",
    "rand": "global C RNG state; use sensord::Rng",
    "random": "global C RNG state; use sensord::Rng",
}

# A loop over an unordered container is a violation when its body reaches one
# of these sinks: event emission, message send, or serialized output.
SINK_EXACT = {
    "OutlierEvent", "Send", "Transmit", "Deliver", "Emit", "fprintf",
    "fwrite", "fputs", "printf", "sprintf", "snprintf",
    # Snapshot encoding: checkpoint bytes must be identical across runs of
    # the same seed (the replay tests compare them), so hash-order writes
    # are as bad as hash-order sends.
    "Serialize", "SaveState",
    # Flight-recorder / causal-trace emit paths: ring records and span lines
    # land in byte-compared JSONL artifacts, so feeding them from a
    # hash-ordered loop breaks same-seed dump identity.
    "Record", "Dump", "DumpAll", "EmitCausalSpan", "EmitDecisionRecord",
}
SINK_PREFIX = ("Write", "Export", "Append", "Put")

IDENT_RE = re.compile(r"[A-Za-z_]\w*")
UNORDERED_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b")


class Violation:
    def __init__(self, rule, path, line, symbol, message):
        self.rule = rule
        self.path = path  # repo-relative, '/'-separated
        self.line = line
        self.symbol = symbol
        self.message = message

    def key(self):
        # Line numbers are deliberately not part of the key so that baseline
        # entries (when they briefly exist) survive unrelated edits.
        return "%s:%s:%s" % (self.rule, self.path, self.symbol)

    def render(self):
        return "%s:%d: error: [%s] %s" % (self.path, self.line, self.rule,
                                          self.message)


def strip_comments_and_strings(text):
    """Blanks comments and string/char literal contents, preserving offsets.

    Newlines inside comments are kept so line numbers stay exact. Raw string
    literals are handled for the common R"( )" delimiters.
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            for k in range(i, j + 2):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 2
        elif c == "R" and nxt == '"' and (i == 0 or not (text[i - 1].isalnum()
                                                         or text[i - 1] == "_")):
            m = re.match(r'R"([^ ()\\\t\n]{0,16})\(', text[i:])
            if m is None:
                i += 1
                continue
            closer = ")" + m.group(1) + '"'
            j = text.find(closer, i + m.end())
            j = n - len(closer) if j == -1 else j
            end = j + len(closer)
            for k in range(i, end):
                if out[k] != "\n":
                    out[k] = " "
            i = end
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    break
                j += 1
            for k in range(i + 1, min(j, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = min(j, n - 1) + 1
        else:
            i += 1
    return "".join(out)


class SourceFile:
    def __init__(self, root, relpath):
        self.relpath = relpath
        with open(os.path.join(root, relpath), encoding="utf-8",
                  errors="replace") as f:
            self.text = f.read()
        self.code = strip_comments_and_strings(self.text)
        self.line_starts = [0]
        for m in re.finditer(r"\n", self.text):
            self.line_starts.append(m.end())

    def line_of(self, offset):
        return bisect.bisect_right(self.line_starts, offset)


def _prev_nonspace(code, i):
    i -= 1
    while i >= 0 and code[i].isspace():
        i -= 1
    return code[i] if i >= 0 else ""


def _prev_two(code, i):
    """The two non-space characters preceding offset i, as a string."""
    chars = []
    i -= 1
    while i >= 0 and len(chars) < 2:
        if not code[i].isspace():
            chars.append(code[i])
        i -= 1
    return "".join(reversed(chars))


def _next_nonspace(code, i):
    while i < len(code) and code[i].isspace():
        i += 1
    return code[i] if i < len(code) else ""


def rule_determinism_clock(src, allowlist):
    if src.relpath in allowlist:
        return []
    out = []
    for m in IDENT_RE.finditer(src.code):
        name = m.group()
        if name in BANNED_ALWAYS:
            out.append(Violation(
                RULE_DETERMINISM_CLOCK, src.relpath, src.line_of(m.start()),
                name, "'%s': %s" % (name, BANNED_ALWAYS[name])))
        elif name in BANNED_CALLS:
            if _next_nonspace(src.code, m.end()) != "(":
                continue
            prev2 = _prev_two(src.code, m.start())
            if prev2.endswith(".") or prev2.endswith(">"):  # '.' or '->'
                continue  # member access: some_struct.time(...)
            out.append(Violation(
                RULE_DETERMINISM_CLOCK, src.relpath, src.line_of(m.start()),
                name, "'%s()': %s" % (name, BANNED_CALLS[name])))
    return out


def _match_forward(code, i, open_ch, close_ch):
    """Offset just past the delimiter closing code[i] (which must be open_ch)."""
    depth = 0
    n = len(code)
    while i < n:
        if code[i] == open_ch:
            depth += 1
        elif code[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def _unordered_names(code):
    """Names declared with an unordered_{map,set,...} type in this TU."""
    names = set()
    for m in UNORDERED_RE.finditer(code):
        i = m.end()
        while i < len(code) and code[i].isspace():
            i += 1
        if i >= len(code) or code[i] != "<":
            continue
        i = _match_forward(code, i, "<", ">")
        # Skip declarator decorations between the type and the name.
        while i < len(code) and (code[i].isspace() or code[i] in "&*"):
            i += 1
        ident = IDENT_RE.match(code, i)
        if ident and ident.group() not in ("const",):
            names.add(ident.group())
    return names


def _body_span(code, i):
    """(start, end) offsets of the statement/body starting at offset i."""
    while i < len(code) and code[i].isspace():
        i += 1
    if i < len(code) and code[i] == "{":
        return i, _match_forward(code, i, "{", "}")
    end = code.find(";", i)
    return i, (len(code) if end == -1 else end + 1)


def _body_has_sink(body):
    for t in IDENT_RE.finditer(body):
        name = t.group()
        if name in SINK_EXACT or name.startswith(SINK_PREFIX):
            return name
    return None


def rule_determinism_unordered(src):
    code = src.code
    names = _unordered_names(code)
    if not names:
        return []
    out = []
    for m in re.finditer(r"\bfor\s*\(", code):
        open_paren = m.end() - 1
        close = _match_forward(code, open_paren, "(", ")")
        header = code[open_paren + 1:close - 1]
        looped = None
        colon = re.search(r"(?<!:):(?!:)", header)
        if colon is not None:  # range-for: the looped expression is the rhs
            for t in IDENT_RE.finditer(header[colon.end():]):
                if t.group() in names:
                    looped = t.group()
                    break
        else:  # iterator loop: look for <name>.begin()/cbegin() in the init
            it = re.search(r"(\w+)\s*\.\s*c?begin\s*\(", header)
            if it is not None and it.group(1) in names:
                looped = it.group(1)
        if looped is None:
            continue
        body_start, body_end = _body_span(code, close)
        sink = _body_has_sink(code[body_start:body_end])
        if sink is not None:
            out.append(Violation(
                RULE_DETERMINISM_UNORDERED, src.relpath,
                src.line_of(m.start()), looped,
                "iteration over unordered container '%s' reaches "
                "deterministic sink '%s'; hash order is unspecified — "
                "use an ordered container or sort first" % (looped, sink)))
    return out


def load_pairing_map(path):
    """Parses 'src/foo.cc tests/bar_test.cc' or 'src/foo.cc -' lines."""
    mapping = {}
    if not os.path.exists(path):
        return mapping
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise SystemExit(
                    "%s:%d: expected '<src path> <test path|->'" %
                    (path, lineno))
            mapping[parts[0]] = parts[1]
    return mapping


def rule_test_pairing(root, pairing_map):
    out = []
    sources = sorted(
        os.path.join(dirpath, f).replace(os.sep, "/")
        for dirpath, _, files in os.walk(os.path.join(root, "src"))
        for f in files if f.endswith(".cc"))
    for abs_src in sources:
        rel = os.path.relpath(abs_src, root).replace(os.sep, "/")
        mapped = pairing_map.get(rel)
        if mapped == "-":
            continue
        if mapped is not None:
            expected = mapped
        else:
            base = os.path.splitext(os.path.basename(rel))[0]
            expected = "tests/%s_test.cc" % base
        if not os.path.exists(os.path.join(root, expected)):
            out.append(Violation(
                RULE_TEST_PAIRING, rel, 1, os.path.basename(rel),
                "no %s — every src/ translation unit needs a unit test "
                "(or an entry in tools/lint/test_pairing.map)" % expected))
        if mapped is not None and \
           not os.path.exists(os.path.join(root, mapped)):
            out.append(Violation(
                RULE_TEST_PAIRING, rel, 1, "map:" + os.path.basename(rel),
                "test_pairing.map points at missing %s" % mapped))
    return out


def compile_flags_from_compdb(compdb_path, root):
    """(compiler, flags) from a src/ entry of compile_commands.json; flags
    keep include dirs, -std, -D — the bits header compilation needs."""
    with open(compdb_path, encoding="utf-8") as f:
        db = json.load(f)
    entry = None
    for e in db:
        if "/src/" in e["file"].replace(os.sep, "/"):
            entry = e
            break
    if entry is None and db:
        entry = db[0]
    if entry is None:
        raise SystemExit("sensord_lint: empty compilation database: %s"
                         % compdb_path)
    argv = entry.get("arguments") or shlex.split(entry["command"])
    compiler = argv[0]
    flags = []
    i = 1
    while i < len(argv):
        a = argv[i]
        if a in ("-I", "-isystem", "-D"):
            flags.extend([a, argv[i + 1]])
            i += 2
        elif a.startswith(("-I", "-isystem", "-D", "-std=")):
            flags.append(a)
            i += 1
        else:
            i += 1
    return compiler, flags


def default_header_flags(root):
    return "c++", ["-std=c++20", "-I", os.path.join(root, "src")]


def rule_header_hygiene(root, headers, compiler, flags, verbose=False):
    out = []
    with tempfile.TemporaryDirectory(prefix="sensord_lint_hdr") as tmp:
        probe = os.path.join(tmp, "probe.cc")
        for rel in headers:
            # src/ headers are probed the way the codebase includes them
            # (-I src); anything else by absolute path.
            include = rel[len("src/"):] if rel.startswith("src/") \
                else os.path.join(root, rel)
            with open(probe, "w", encoding="utf-8") as f:
                f.write('#include "%s"\n' % include)
                f.write('#include "%s"\n' % include)  # include-guard check
            cmd = [compiler, "-fsyntax-only", "-x", "c++"] + flags + [probe]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if verbose:
                print("  header-hygiene: %s %s" %
                      (rel, "ok" if proc.returncode == 0 else "FAIL"))
            if proc.returncode != 0:
                first = next((l for l in proc.stderr.splitlines()
                              if "error" in l), proc.stderr.strip()[:200])
                first = first.replace(probe, "<probe>")
                out.append(Violation(
                    RULE_HEADER_HYGIENE, rel, 1, os.path.basename(rel),
                    "header is not self-contained: %s" % first))
    return out


def run_clang_query(root, compdb_path, rules_dir, files):
    """Supplementary AST-exact rules, active only where clang-query exists."""
    import shutil
    binary = shutil.which("clang-query")
    if binary is None or compdb_path is None or not os.path.isdir(rules_dir):
        return [], False
    out = []
    rule_files = sorted(f for f in os.listdir(rules_dir)
                        if f.endswith(".clangquery"))
    for rf in rule_files:
        cmd = [binary, "-p", os.path.dirname(compdb_path),
               "-f", os.path.join(rules_dir, rf)] + files
        proc = subprocess.run(cmd, capture_output=True, text=True)
        for m in re.finditer(r"^(\S+?):(\d+):\d+: note: \"root\" binds here",
                             proc.stdout, re.M):
            rel = os.path.relpath(m.group(1), root).replace(os.sep, "/")
            out.append(Violation(
                "clang-query:" + rf[:-len(".clangquery")], rel,
                int(m.group(2)), "%s:%s" % (rf, m.group(2)),
                "AST matcher in tools/lint/rules/%s matched" % rf))
    return out, True


def load_list_file(path):
    entries = set()
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if line:
                entries.add(line)
    return entries


def gather_sources(root, scan_paths, suffixes):
    rels = []
    if scan_paths:
        for p in scan_paths:
            ap = p if os.path.isabs(p) else os.path.join(root, p)
            if os.path.isdir(ap):
                for dirpath, _, files in os.walk(ap):
                    for f in sorted(files):
                        if f.endswith(suffixes):
                            rels.append(os.path.relpath(
                                os.path.join(dirpath, f), root))
            elif ap.endswith(suffixes):
                rels.append(os.path.relpath(ap, root))
    else:
        for dirpath, _, files in os.walk(os.path.join(root, "src")):
            for f in sorted(files):
                if f.endswith(suffixes):
                    rels.append(os.path.relpath(
                        os.path.join(dirpath, f), root))
    return sorted(set(r.replace(os.sep, "/") for r in rels))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sensord_lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels above this file)")
    parser.add_argument("--compdb", default=None,
                        help="compile_commands.json for header hygiene and "
                             "clang-query (default: build/release/... if "
                             "present)")
    parser.add_argument("--rules", default=",".join(DEFAULT_GROUPS),
                        help="comma list of rule groups: %s" %
                             ",".join(RULE_GROUPS))
    parser.add_argument("--baseline", default=None,
                        help="suppression file (default: "
                             "tools/lint/baseline.txt)")
    parser.add_argument("--scan", nargs="*", default=None, metavar="PATH",
                        help="restrict file-scanning rules to these "
                             "files/dirs (default: src/)")
    parser.add_argument("--no-clang-query", action="store_true",
                        help="skip the optional clang-query rules even if "
                             "the binary is available")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    root = args.root or os.path.normpath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
    root = os.path.abspath(root)

    groups = [g for g in args.rules.split(",") if g]
    for g in groups:
        if g not in RULE_GROUPS:
            print("sensord_lint: unknown rule group '%s' (known: %s)" %
                  (g, ", ".join(RULE_GROUPS)), file=sys.stderr)
            return 2
    active = set()
    for g in groups:
        active.update(RULE_GROUPS[g])

    compdb = args.compdb
    if compdb is None:
        candidate = os.path.join(root, "build", "release",
                                 "compile_commands.json")
        compdb = candidate if os.path.exists(candidate) else None
    if compdb is not None and not os.path.exists(compdb):
        print("sensord_lint: no such compilation database: %s" % compdb,
              file=sys.stderr)
        return 2

    baseline_path = args.baseline or os.path.join(root, "tools", "lint",
                                                  "baseline.txt")
    baseline = load_list_file(baseline_path)
    allowlist = load_list_file(
        os.path.join(root, "tools", "lint", "determinism_allowlist.txt"))

    violations = []

    scan_rules = active & {RULE_DETERMINISM_CLOCK,
                           RULE_DETERMINISM_UNORDERED}
    sources = []
    if scan_rules:
        sources = gather_sources(root, args.scan, (".cc", ".h", ".cpp"))
        for rel in sources:
            src = SourceFile(root, rel)
            if RULE_DETERMINISM_CLOCK in active:
                violations += rule_determinism_clock(src, allowlist)
            if RULE_DETERMINISM_UNORDERED in active:
                violations += rule_determinism_unordered(src)

    if RULE_TEST_PAIRING in active:
        pairing_map = load_pairing_map(
            os.path.join(root, "tools", "lint", "test_pairing.map"))
        violations += rule_test_pairing(root, pairing_map)

    if RULE_HEADER_HYGIENE in active:
        headers = [r for r in gather_sources(root, args.scan, (".h",))]
        if compdb is not None:
            compiler, flags = compile_flags_from_compdb(compdb, root)
        else:
            compiler, flags = default_header_flags(root)
        violations += rule_header_hygiene(root, headers, compiler, flags,
                                          verbose=args.verbose)

    if not args.no_clang_query and scan_rules:
        cc_files = [os.path.join(root, r) for r in sources
                    if r.endswith(".cc")]
        query_violations, ran = run_clang_query(
            root, compdb, os.path.join(root, "tools", "lint", "rules"),
            cc_files)
        if ran:
            violations += query_violations
        elif args.verbose:
            print("sensord_lint: clang-query not available; AST rules "
                  "skipped (the token rules above still ran)")

    kept = []
    used_baseline = set()
    for v in violations:
        if v.key() in baseline:
            used_baseline.add(v.key())
        else:
            kept.append(v)
    stale = sorted(baseline - used_baseline)
    for entry in stale:
        print("%s:1: error: [stale-baseline] baseline entry no longer "
              "matches any violation; delete it: %s"
              % (os.path.relpath(baseline_path, root), entry))

    kept.sort(key=lambda v: (v.path, v.line, v.rule))
    for v in kept:
        print(v.render())

    checked = []
    if scan_rules:
        checked.append("%d files" % len(sources))
    if RULE_HEADER_HYGIENE in active:
        checked.append("headers standalone")
    if RULE_TEST_PAIRING in active:
        checked.append("test pairing")
    status = "clean" if not kept and not stale else \
             "%d violation(s)" % (len(kept) + len(stale))
    print("sensord_lint: %s [%s; baseline: %d entr%s]" %
          (status, ", ".join(checked) or "no rules", len(baseline),
           "y" if len(baseline) == 1 else "ies"))
    return 0 if not kept and not stale else 1


if __name__ == "__main__":
    sys.exit(main())
