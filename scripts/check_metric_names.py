#!/usr/bin/env python3
"""Metric-name lint: keep instrument names consistent between src and tests.

Two classes of drift have bitten this repo before and are cheap to catch
statically:

  1. A name literal that violates the naming convention
     (dot-separated lowercase [a-z0-9_] segments, e.g.
     "edge.dcr_resumed" or the fragment ".ppr_replays" that gets an
     instance prefix concatenated at runtime).
  2. A test asserting on a counter/histogram name that no production
     code ever registers — the assertion silently reads a fresh zero
     instrument and can never fail, which is worse than no assertion.

The scanner is line-based and intentionally simple: it looks at string
literals on lines that call a MetricsRegistry accessor or one of the
bump() helpers. Names built through multiple variables are invisible to
it; list those in ALLOW_UNRESOLVED with a pointer to where they are
registered.

Exit status is non-zero on any finding, so CI fails fast.

Usage: scripts/check_metric_names.py [repo_root]
"""

import os
import re
import sys

# Call sites whose string-literal arguments are metric names. bump()/
# bumpCounter() are the per-component helpers; the rest are
# MetricsRegistry accessors.
CALL_TOKENS = (
    "counter(",
    "gauge(",
    "maxGauge(",
    "histogram(",
    "hdr(",
    "series(",
    "spanSink(",
    "bump(",
    "bumpCounter(",
)

STRING_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')

# A full name: lowercase dot-separated segments. A fragment: the same
# with a leading dot (instance prefix prepended at runtime) or a
# trailing dot (suffix appended at runtime, e.g. "l4.to." + backend).
SEGMENT = r"[a-z0-9_]+"
FULL_RE = re.compile(rf"^{SEGMENT}(\.{SEGMENT})*$")
# Leading dot, trailing dot, or both (".err." sits between an instance
# prefix and a reason suffix).
FRAGMENT_RE = re.compile(rf"^\.?{SEGMENT}(\.{SEGMENT})*\.?$")

# Literals on metric-call lines that are not metric names (HTTP bits,
# format strings, separators) — skip anything that doesn't look like a
# name at all.
def looks_like_name(lit: str) -> bool:
    return bool(lit) and bool(re.fullmatch(r"[a-z0-9_.]+", lit)) and any(
        c.isalpha() for c in lit
    )


# Reader-referenced names the scanner cannot resolve mechanically.
# Keep each entry justified.
ALLOW_UNRESOLVED = {
    # Registered as config_.name + ".err." + std::to_string(status)
    # (proxy_origin.cpp originFailRequest) — the status segment is
    # numeric, so the fragment ".err." plus a digits-only suffix never
    # appears as a literal.
    "origin0.err.502",
    "origin0.err.503",
}

# ---------------------------------------------------------------------------
# Flight-recorder name families. These three families are shared
# vocabulary between the recorder (src), its offline consumers
# (scripts/), and every reader asserting on them — a typo'd cause or
# loop-stat suffix silently reads zero forever, so the whole family is
# enumerated here and any literal inside it must match the schema.
LOOP_STATS = {"iter_us", "poll_us", "dispatch_us", "stalls"}
# Engine families: loop.backend.* carries the IoBackend syscall/SQE
# economics plus the which-backend gauge; timer.* carries the timer
# heap's churn.
LOOP_BACKEND_STATS = {
    "io_uring", "wait_syscalls", "sqes", "cqes", "poll_rearms",
}
TIMER_STATS = {"armed", "cancelled", "fired", "compactions"}
DISRUPTION_CAUSES = {
    "unattributed", "reset_on_restart", "trunk_abort", "drain_deadline",
    "shed", "breaker", "timeout", "fault_injected",
}
RECORDER_STATS = {"scrapes", "archived"}


def family_violation(lit: str):
    """Return an error string if `lit` misuses a recorder name family."""
    segments = lit.strip(".").split(".")
    for i, seg in enumerate(segments):
        rest = segments[i + 1:]
        if seg == "loop":
            if not rest:
                return None if lit.endswith(".") else \
                    "bare 'loop' (want loop.<stat>)"
            if rest[0] == "tag_us":
                return None  # loop.tag_us.<tag> — tag is free-form
            if rest[0] == "backend":
                if len(rest) == 2 and rest[1] in LOOP_BACKEND_STATS:
                    return None
                return (f"unknown loop backend stat {'.'.join(rest[1:])!r} "
                        f"(want one of {sorted(LOOP_BACKEND_STATS)})")
            if len(rest) == 1 and rest[0] in LOOP_STATS:
                return None
            return (f"unknown loop stat {'.'.join(rest)!r} "
                    f"(want one of {sorted(LOOP_STATS)}, "
                    f"backend.<stat>, or tag_us.<tag>)")
        if seg == "disruption":
            if not rest:
                # The bare fragment ".disruption." has the cause name
                # appended at runtime (disruptionCauseName).
                return None if lit.endswith(".") else \
                    "bare 'disruption' (want disruption.<cause>)"
            if len(rest) == 1 and rest[0] in DISRUPTION_CAUSES:
                return None
            return (f"unknown disruption cause {'.'.join(rest)!r} "
                    f"(want one of {sorted(DISRUPTION_CAUSES)})")
        if seg == "timer":
            if not rest:
                return None if lit.endswith(".") else \
                    "bare 'timer' (want timer.<stat>)"
            if len(rest) == 1 and rest[0] in TIMER_STATS:
                return None
            return (f"unknown timer stat {'.'.join(rest)!r} "
                    f"(want one of {sorted(TIMER_STATS)})")
        if seg == "recorder":
            if not rest:
                return None if lit.endswith(".") else \
                    "bare 'recorder' (want recorder.<stat>)"
            if len(rest) == 1 and rest[0] in RECORDER_STATS:
                return None
            return (f"unknown recorder stat {'.'.join(rest)!r} "
                    f"(want one of {sorted(RECORDER_STATS)})")
    return None


def scan_file(path):
    """Yield (lineno, literal) for metric-name literals in one file."""
    with open(path, encoding="utf-8", errors="replace") as f:
        for lineno, line in enumerate(f, 1):
            if not any(tok in line for tok in CALL_TOKENS):
                continue
            for lit in STRING_RE.findall(line):
                if looks_like_name(lit):
                    yield lineno, lit


def walk(root, subdir, exts=(".cpp", ".h")):
    for dirpath, _, files in os.walk(os.path.join(root, subdir)):
        for name in sorted(files):
            if name.endswith(exts):
                yield os.path.join(dirpath, name)


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    failures = 0

    # Pass 1: src literals define the registered-name universe and must
    # individually satisfy the convention. bench/ used to sit in this
    # pass, which meant a bench typo minted a fake "registered" name —
    # bench is a *reader* (it scrapes counters the proxies registered)
    # and is checked as one in pass 2.
    registered_full = set()
    registered_fragments = set()
    for path in walk(root, "src"):
        rel = os.path.relpath(path, root)
        for lineno, lit in scan_file(path):
            violation = family_violation(lit)
            if violation:
                print(f"{rel}:{lineno}: metric {lit!r}: {violation}")
                failures += 1
            if FULL_RE.match(lit):
                registered_full.add(lit)
            elif FRAGMENT_RE.match(lit):
                registered_fragments.add(lit)
            else:
                print(f"{rel}:{lineno}: bad metric name {lit!r} "
                      "(want lowercase dot-separated segments)")
                failures += 1

    # Pass 2: every multi-segment name a test or bench reads must
    # resolve to a registered literal — exactly, or as instance-prefix
    # + fragment. Tests that build their own MetricsRegistry (unit
    # tests for the metrics layer itself) name instruments freely and
    # are skipped.
    suffix_fragments = {f for f in registered_fragments if f.startswith(".")}
    local_registry_re = re.compile(r"\bMetricsRegistry\s+\w+\s*;")
    for subdir in ("tests", "bench"):
        for path in walk(root, subdir):
            rel = os.path.relpath(path, root)
            with open(path, encoding="utf-8", errors="replace") as f:
                if local_registry_re.search(f.read()):
                    continue
            for lineno, lit in scan_file(path):
                violation = family_violation(lit)
                if violation:
                    print(f"{rel}:{lineno}: metric {lit!r}: {violation}")
                    failures += 1
                if not FULL_RE.match(lit):
                    if not FRAGMENT_RE.match(lit):
                        print(f"{rel}:{lineno}: bad metric name {lit!r} "
                              "(want lowercase dot-separated segments)")
                        failures += 1
                    continue
                if "." not in lit:
                    # Single-segment names are reader-local instruments
                    # (tests register their own "a", "reqs", ...).
                    continue
                if lit in registered_full or lit in ALLOW_UNRESOLVED:
                    continue
                # "origin0.ppr_replays" resolves via the fragment
                # ".ppr_replays"; "appserver.drain_started" via the bare
                # literal "drain_started" (AppServer::bump prepends the
                # instance name itself).
                segments = lit.split(".")
                # A fragment ending in "." is an open family: src
                # appends the last segment at runtime ("edge0" +
                # ".disruption." + disruptionCauseName(cause)), so a
                # read resolves if it extends such a fragment by
                # exactly one segment. family_violation above already
                # vetted that segment against the family's schema.
                resolved = any(
                    "." + ".".join(segments[i:]) in suffix_fragments
                    or ".".join(segments[i:]) in registered_full
                    or ("." + ".".join(segments[i:-1]) + "."
                        in suffix_fragments)
                    for i in range(1, len(segments))
                )
                if not resolved:
                    print(f"{rel}:{lineno}: reads metric {lit!r} "
                          "but no src literal registers it")
                    failures += 1

    if failures:
        print(f"check_metric_names: {failures} finding(s)")
        return 1
    print(
        f"check_metric_names: OK ({len(registered_full)} full names, "
        f"{len(registered_fragments)} fragments, tests consistent)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
