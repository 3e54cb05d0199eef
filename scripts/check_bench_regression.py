#!/usr/bin/env python3
"""Bench regression check: warn-only by default, gating with --gate.

Compares a freshly produced BENCH_*.json against the committed baseline
and reports every metric outside the tolerance band. By default it
never fails the build: CI runners are noisy shared machines, so most
numbers are a trajectory signal for a human, not a gate. With --gate
any regression or missing cell exits non-zero — used for benches whose
headline metric is structural rather than timing-noisy (e.g.
BENCH_udp_batching.json's syscalls per datagram, which depends on burst
depth and batch width, not wall-clock).

Budget ceilings (--budget NAME=CEILING, repeatable) check a top-level
metric of CURRENT.json against an absolute ceiling rather than against
the baseline — the flight-recorder overhead gate
(--budget recorder_rps_delta=0.02) is the canonical user: the claim is
"the always-on recorder costs under 2% RPS", not "no worse than last
time". Budget breaches respect --gate like every other finding.

Usage:
  scripts/check_bench_regression.py CURRENT.json BASELINE.json \
      [--tolerance 0.30] [--gate] [--budget NAME=CEILING]...

Self-test: scripts/test_check_bench_regression.py (run by the CI lint
job).
"""

import argparse
import json
import sys

# Per-metric (direction, absolute floor). Direction +1 means higher is
# better (warn when it drops), -1 lower is better (warn when it grows).
# Deltas smaller than the floor are measurement noise on a loopback
# smoke run (sub-ms latencies, a handful of syscalls) and never warn,
# whatever the relative change.
METRICS = {
    "rps": (+1, 500.0),
    "p50_ms": (-1, 0.5),
    "p99_ms": (-1, 1.0),
    "cpu_us_per_req": (-1, 5.0),
    "write_syscalls_per_req": (-1, 0.5),
    # Containment rates: 0 on a healthy fleet by construction, so any
    # appreciable value means the admission/retry logic misfires under
    # normal load. The floor absorbs a stray shed during warmup.
    "shed_rate": (-1, 0.01),
    "retry_rate": (-1, 0.01),
    # Batched datagram plane. syscalls/datagram is structural, so its
    # floor is tight; datagrams/sec is throughput-noisy like rps.
    "datagrams_per_sec": (+1, 5000.0),
    "syscalls_per_datagram": (-1, 0.05),
    "p99_burst_ms": (-1, 1.0),
    # Edge relay mode (bench_relay's streamed-response cell).
    # copy_bytes_per_req is structural — a streamed 256 KiB body is
    # copied a fixed number of times per hop, so growth past the floor
    # means the body is being re-buffered. The syscall floor absorbs
    # read-size jitter.
    "copy_bytes_per_req": (-1, 256.0),
    "syscalls_per_req": (-1, 0.5),
    # Event-engine plane (bench_event_engine), keyed by backend /
    # connections / timers. idle_conn_kb polices the engine's
    # per-connection bookkeeping (kernel socket buffers never show in
    # RSS); the wakeup / arm / cancel / fire latencies are
    # wall-clock-noisy, so their floors are wide and they act as blowup
    # detectors only.
    "idle_conn_kb": (-1, 0.5),
    "wakeup_p99_ns": (-1, 25000.0),
    "arm_ns": (-1, 250.0),
    "cancel_ns": (-1, 250.0),
    "fire_ns": (-1, 250.0),
}


# Cell dimensions, in label order: (JSON field, label, default). One key
# function spans every BENCH_*.json schema because absent dimensions
# take their default: "tracing"/"recorder" only appear in bench_metrics
# cells (where absent means on), "udp_workers" only in
# bench_udp_batching cells, "family"/"backend"/"connections"/"timers"
# only in bench_event_engine cells (idle cells carry backend +
# connections, timer cells the standing population).
KEY_FIELDS = (
    ("http_workers", "workers", None),
    ("tracing", "tracing", True),
    ("udp_workers", "udp_workers", None),
    ("mode", "mode", None),
    ("recorder", "recorder", True),
    ("family", "family", None),
    ("backend", "backend", None),
    ("connections", "connections", None),
    ("timers", "timers", None),
)


def cell_key(cell):
    return tuple(cell.get(field, default) for field, _, default in KEY_FIELDS)


def cell_label(cell):
    parts = []
    for field, label, _ in KEY_FIELDS:
        value = cell.get(field)
        if value is None:
            continue
        if isinstance(value, bool):
            value = "on" if value else "off"
        parts.append(f"{label}={value}")
    return " ".join(parts) or "cell"


def parse_budget(spec):
    name, sep, ceiling = spec.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"budget {spec!r} must be NAME=CEILING")
    return name, float(ceiling)


def check_budgets(current, budgets, emit):
    """Absolute ceilings on top-level metrics. Returns finding count."""
    findings = 0
    for name, ceiling in budgets:
        value = current.get(name)
        if value is None:
            emit(f"budget metric {name!r} missing from bench output")
            findings += 1
        elif value > ceiling:
            emit(
                f"budget breach {name}: {value:.4f} > ceiling {ceiling:.4f}"
            )
            findings += 1
    return findings


def check(current, baseline, tolerance, emit):
    """Compares parsed bench dicts. Calls emit(message) once per finding
    and returns the finding count (0 = clean)."""
    if current.get("smoke") != baseline.get("smoke"):
        print(
            "::warning::bench regression check skipped: smoke flag differs "
            f"(current={current.get('smoke')} baseline={baseline.get('smoke')})"
        )
        return 0

    base_by_key = {cell_key(c): c for c in baseline.get("cells", [])}
    findings = 0
    if not current.get("cells"):
        # An empty current file must not sail through a gate.
        emit("bench output has no cells")
        return 1
    for cell in current.get("cells", []):
        base = base_by_key.get(cell_key(cell))
        label = cell_label(cell)
        if base is None:
            emit(f"bench cell {label} missing from baseline")
            findings += 1
            continue
        if cell.get("errors", 0) > 0:
            emit(f"bench cell {label}: {cell['errors']} request errors")
            findings += 1
        for metric, (direction, abs_floor) in METRICS.items():
            cur_v = cell.get(metric)
            base_v = base.get(metric)
            if cur_v is None or base_v is None:
                continue
            if abs(cur_v - base_v) < abs_floor:
                continue
            if base_v == 0:
                # No relative delta exists; anything past the absolute
                # floor in the bad direction is a regression (this is
                # how the zero-baseline containment rates are policed).
                if direction < 0 and cur_v > 0:
                    emit(
                        f"bench regression {label} {metric}: "
                        f"0 -> {cur_v:.3g} (baseline is zero)"
                    )
                    findings += 1
                continue
            delta = (cur_v - base_v) / base_v
            regressed = delta * direction < -tolerance
            if regressed:
                emit(
                    f"bench regression {label} {metric}: "
                    f"{base_v:.3g} -> {cur_v:.3g} "
                    f"({delta * 100:+.1f}%, tolerance ±{tolerance * 100:.0f}%)"
                )
                findings += 1
    return findings


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("current")
    ap.add_argument("baseline")
    ap.add_argument("--tolerance", type=float, default=0.30)
    ap.add_argument(
        "--gate",
        action="store_true",
        help="fail (exit 1) on any regression or missing cell",
    )
    ap.add_argument(
        "--budget",
        action="append",
        default=[],
        type=parse_budget,
        metavar="NAME=CEILING",
        help="absolute ceiling on a top-level metric of CURRENT "
        "(baseline-independent; e.g. recorder_rps_delta=0.02)",
    )
    args = ap.parse_args()

    try:
        with open(args.current) as f:
            current = json.load(f)
        with open(args.baseline) as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        if args.gate:
            print(f"::error::bench regression gate failed to load inputs: {e}")
            return 1
        print(f"::warning::bench regression check skipped: {e}")
        return 0

    level = "error" if args.gate else "warning"
    emit = lambda msg: print(f"::{level}::{msg}")
    findings = check(current, baseline, args.tolerance, emit)
    # Budgets are absolute claims about CURRENT, so they apply even
    # when the baseline comparison is skipped (smoke-flag mismatch).
    findings += check_budgets(current, args.budget, emit)

    if findings == 0:
        print(
            f"bench regression check: all cells within "
            f"±{args.tolerance * 100:.0f}% of baseline"
        )
        return 0
    if args.gate:
        print(f"bench regression gate: {findings} finding(s) — failing the job")
        return 1
    print(f"bench regression check: {findings} warning(s) — not failing the job")
    return 0


if __name__ == "__main__":
    sys.exit(main())
