#!/usr/bin/env python3
"""Repo invariant linter — the determinism and concurrency boundaries.

The codebase keeps several invariants that no compiler checks:

  wall-clock        All raw wall-time reads (std::chrono::steady_clock,
                    system_clock, high_resolution_clock, this_thread
                    sleeps) are confined to src/sim/clock.{hh,cc} — the
                    determinism boundary. Everything else must read an
                    injected sim::Clock, or a VirtualClock run silently
                    re-acquires a wall-time dependency.

  rng               All randomness is confined to src/common/rng.hh
                    (counter-hashed, seed-stable). rand()/srand(),
                    std::random_device, mt19937 and friends anywhere
                    else break run reproducibility.

  raw-mutex         std::mutex / lock_guard / unique_lock / scoped_lock
                    spellings are confined to src/common/thread_safety.hh.
                    Everything else uses AnnotatedMutex + MutexLock so
                    Clang thread-safety analysis sees every lock site.

  ledger-pairing    Any file that writes one of the LossLedger roll-up
                    fields `offered`, `delivered`, `dropped` must write
                    all three: the frame-accounting invariant
                    offered == delivered + dropped only survives when a
                    mutation site updates the trio together.

  arbiter-contract  Files named uplink.hh must state the audited
                    "SharedLink contract" and keep a documentation
                    comment immediately adjacent to every acquire()/
                    release() declaration, so the contract cannot drift
                    away from the interface it governs.

  obs-clock         The observability layer (src/obs/) never reads time
                    itself: every event timestamp is an *argument*,
                    stamped by the runtime off its injected sim::Clock
                    (or the frame clock). Any host time API under
                    src/obs/ — std::chrono, gettimeofday, clock_gettime,
                    timespec_get, clock() — would silently break the
                    byte-identical-trace determinism contract. Unlike
                    the other token rules, this one is *restricted to*
                    a path prefix rather than allowing exceptions.

Suppression: append `// lint:allow(rule)` (or `lint:allow(rule1,rule2)`)
to the offending line, with a reason after a colon if you like:

    auto t = std::chrono::steady_clock::now(); // lint:allow(wall-clock): boot probe

Suppressions are per-line and per-rule; there is no file-level blanket.

Usage:
    python3 tools/lint_invariants.py [--root DIR] [FILE...]

With no FILE arguments the linter scans every *.hh/*.cc under
<root>/src. Explicit FILE arguments scan exactly those files (the test
fixtures use this). Exit status 0 when clean, 1 with findings (one per
line: path:line: [rule] message), 2 on usage errors.
"""

import argparse
import os
import re
import sys

SOURCE_EXTS = (".hh", ".cc", ".h", ".cpp")

# Files (by repo-relative suffix) allowed to use the banned tokens.
ALLOWED = {
    "wall-clock": ("src/sim/clock.hh", "src/sim/clock.cc"),
    "rng": ("src/common/rng.hh",),
    "raw-mutex": ("src/common/thread_safety.hh",),
}

# Rules that only apply to files whose path contains one of the given
# prefixes (the inverse of ALLOWED: scoped bans instead of exemptions).
RESTRICTED = {
    "obs-clock": ("src/obs/",),
}

TOKEN_RULES = {
    "wall-clock": [
        (re.compile(r"\bsteady_clock\b"), "raw steady_clock read"),
        (re.compile(r"\bsystem_clock\b"), "raw system_clock read"),
        (re.compile(r"\bhigh_resolution_clock\b"),
         "raw high_resolution_clock read"),
        (re.compile(r"\bthis_thread\s*::\s*sleep_(for|until)\b"),
         "raw host sleep"),
    ],
    "rng": [
        (re.compile(r"(?<!\w)s?rand\s*\("), "C rand()/srand()"),
        (re.compile(r"\brandom_device\b"), "std::random_device"),
        (re.compile(r"\bmt19937(_64)?\b"), "std::mt19937"),
        (re.compile(r"\bdefault_random_engine\b"),
         "std::default_random_engine"),
    ],
    "raw-mutex": [
        # RAII first: "lock_guard<std::mutex>" should hint MutexLock,
        # not report its template argument.
        (re.compile(r"\bstd\s*::\s*(lock_guard|unique_lock|scoped_lock)\b"),
         "raw lock RAII (use MutexLock)"),
        (re.compile(r"\bstd\s*::\s*(recursive_|timed_|shared_)?mutex\b"),
         "raw std::mutex (use AnnotatedMutex)"),
    ],
    "obs-clock": [
        (re.compile(r"\bstd\s*::\s*chrono\b"), "std::chrono use"),
        (re.compile(r"\bgettimeofday\b"), "gettimeofday()"),
        (re.compile(r"\bclock_gettime\b"), "clock_gettime()"),
        (re.compile(r"\btimespec_get\b"), "timespec_get()"),
        (re.compile(r"(?<![\w:])clock\s*\("), "C clock()"),
        (re.compile(r"\btime\s*\(\s*(NULL|nullptr|0)?\s*\)"),
         "C time()"),
    ],
}

TOKEN_HINTS = {
    "wall-clock": "wall time outside src/sim/clock.* breaks the "
                  "determinism boundary; read an injected sim::Clock",
    "rng": "randomness outside src/common/rng.hh breaks seed-stable "
           "reproducibility",
    "raw-mutex": "locks outside src/common/thread_safety.hh are "
                 "invisible to thread-safety analysis",
    "obs-clock": "src/obs/ never reads host time: timestamps are "
                 "arguments stamped off the run's sim::Clock, the "
                 "byte-identical-trace determinism boundary",
}

LEDGER_WRITE = re.compile(
    r"(?<!\w)(offered|delivered|dropped)(?!\w)\s*(?:[-+*/|&^]=|=(?!=))")

SUPPRESS = re.compile(r"lint:allow\(([^)]*)\)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line  # 1-based
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


def strip_code(text):
    """Return text with comments and string/char literals blanked
    (newlines preserved), so token rules never fire on prose."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(" ")
            elif c == "\n":  # unterminated; bail to code
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def suppressions(raw_lines):
    """Per-line rule suppressions, parsed from the RAW text (they live
    in comments, which strip_code erases)."""
    sup = {}
    for idx, line in enumerate(raw_lines):
        m = SUPPRESS.search(line)
        if m:
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            sup[idx + 1] = rules
    return sup


def norm(path):
    return path.replace(os.sep, "/")


def is_allowed(path, rule):
    suffixes = ALLOWED.get(rule, ())
    p = norm(path)
    return any(p.endswith(s) for s in suffixes)


def in_scope(path, rule):
    """Restricted rules fire only under their path prefixes."""
    prefixes = RESTRICTED.get(rule)
    if prefixes is None:
        return True
    p = norm(path)
    return any(pre in p for pre in prefixes)


def lint_tokens(path, code_lines, sup, findings):
    for rule, patterns in TOKEN_RULES.items():
        if is_allowed(path, rule) or not in_scope(path, rule):
            continue
        for idx, line in enumerate(code_lines):
            lineno = idx + 1
            if rule in sup.get(lineno, ()):
                continue
            for pat, what in patterns:
                if pat.search(line):
                    findings.append(Finding(
                        path, lineno, rule,
                        "%s — %s" % (what, TOKEN_HINTS[rule])))
                    break  # one finding per line per rule


def lint_ledger(path, code_lines, sup, findings):
    writes = {}  # field -> first line
    for idx, line in enumerate(code_lines):
        lineno = idx + 1
        if "ledger-pairing" in sup.get(lineno, ()):
            continue
        for m in LEDGER_WRITE.finditer(line):
            writes.setdefault(m.group(1), lineno)
    if writes and len(writes) < 3:
        missing = sorted(set(("offered", "delivered", "dropped"))
                         - set(writes))
        first = min(writes.values())
        findings.append(Finding(
            path, first, "ledger-pairing",
            "writes %s but never %s — the invariant "
            "offered == delivered + dropped needs every mutation site "
            "to update the trio together"
            % (", ".join(sorted(writes)), ", ".join(missing))))


CONTRACT_PHRASE = "The SharedLink contract"
# A declaration starts its line with a return type (optionally after
# `virtual`), so calls such as `core.release(` or `link->acquire(` and
# `return release(` never match.
METHOD_DECL = re.compile(
    r"^\s*(?:virtual\s+)?(?!return\b)[\w:<>]+[\s*&]+(acquire|release)\s*\(")


def lint_arbiter(path, raw_lines, code_lines, sup, findings):
    if os.path.basename(path) != "uplink.hh":
        return
    text = "".join(raw_lines)
    if CONTRACT_PHRASE not in text:
        findings.append(Finding(
            path, 1, "arbiter-contract",
            'missing the audited contract statement ("%s" section)'
            % CONTRACT_PHRASE))
    for idx, line in enumerate(code_lines):
        lineno = idx + 1
        if "arbiter-contract" in sup.get(lineno, ()):
            continue
        m = METHOD_DECL.search(line)
        if not m:
            continue
        # The nearest non-blank RAW line above must close or continue a
        # comment: the contract doc must sit adjacent to the decl.
        ok = False
        for j in range(idx - 1, -1, -1):
            prev = raw_lines[j].strip()
            if not prev:
                continue
            ok = (prev.endswith("*/") or prev.startswith("//")
                  or prev.startswith("*") or prev.startswith("/*"))
            break
        if not ok:
            findings.append(Finding(
                path, lineno, "arbiter-contract",
                "%s() declaration has no adjacent contract comment"
                % m.group(1)))


def lint_file(path, findings):
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        findings.append(Finding(path, 0, "io", str(e)))
        return
    raw_lines = text.splitlines(keepends=True)
    code_lines = strip_code(text).splitlines()
    sup = suppressions(raw_lines)
    lint_tokens(path, code_lines, sup, findings)
    lint_ledger(path, code_lines, sup, findings)
    lint_arbiter(path, raw_lines, code_lines, sup, findings)


def gather(root):
    files = []
    src = os.path.join(root, "src")
    for dirpath, _, names in os.walk(src):
        for name in sorted(names):
            if name.endswith(SOURCE_EXTS):
                files.append(os.path.join(dirpath, name))
    return sorted(files)


def main(argv):
    ap = argparse.ArgumentParser(
        description="incam repo invariant linter (see module docstring)")
    ap.add_argument("--root", default=".",
                    help="repo root; scans <root>/src when no FILEs given")
    ap.add_argument("files", nargs="*", metavar="FILE",
                    help="lint exactly these files instead of <root>/src")
    args = ap.parse_args(argv)

    files = args.files or gather(args.root)
    if not files:
        print("lint_invariants: nothing to lint under %s/src"
              % args.root, file=sys.stderr)
        return 2

    findings = []
    for path in files:
        lint_file(path, findings)

    for f in findings:
        print(f)
    if findings:
        print("lint_invariants: %d finding(s) in %d file(s) scanned"
              % (len(findings), len(files)), file=sys.stderr)
        return 1
    print("lint_invariants: clean (%d files)" % len(files),
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
