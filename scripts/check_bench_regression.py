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
    # Million-flow L4 plane (bench_l4_scale). The latency floor is wide
    # because single-lookup nanoseconds vary with runner CPU; a 10x
    # blowup still trips it. bytes/flow is structural (slot size times
    # pin count) and misroute_rate is zero-policed: the baseline is 0
    # by construction, so ANY misroute during churn fails the gate.
    "lookup_p99_ns": (-1, 250.0),
    "bytes_per_flow": (-1, 2.0),
    "misroute_rate": (-1, 0.0),
    # Reduced-copy relay plane (bench_relay). copy_bytes_per_req is
    # structural — a spliced tunnel cell copies ~0 bytes/record, so any
    # growth past the floor means payload re-entered userspace. The
    # syscall floor is wide enough to absorb pipe-refill jitter.
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


def cell_key(cell):
    # Optional dimensions are defaulted so one key function spans every
    # BENCH_*.json schema: "tracing"/"recorder" only appear in
    # bench_metrics cells, "udp_workers"/"batched" only in
    # bench_udp_batching cells.
    return (
        cell.get("http_workers"),
        cell.get("vectored_io"),
        cell.get("tracing", True),
        cell.get("udp_workers"),
        cell.get("batched"),
        cell.get("mode"),
        cell.get("flows"),
        cell.get("shards"),
        cell.get("splice"),
        cell.get("zerocopy"),
        cell.get("recorder", True),
        # bench_event_engine dimensions: idle cells carry backend
        # (+ connections), timer cells carry the standing population.
        cell.get("family"),
        cell.get("backend"),
        cell.get("connections"),
        cell.get("timers"),
    )


def cell_label(cell):
    key = cell_key(cell)
    parts = []
    if key[0] is not None:
        parts.append(f"workers={key[0]}")
    if key[1] is not None:
        parts.append(f"vectored={'on' if key[1] else 'off'}")
    if "tracing" in cell:
        parts.append(f"tracing={'on' if key[2] else 'off'}")
    if key[3] is not None:
        parts.append(f"udp_workers={key[3]}")
    if key[4] is not None:
        parts.append(f"batched={'on' if key[4] else 'off'}")
    if key[5] is not None:
        parts.append(f"mode={key[5]}")
    if key[6] is not None:
        parts.append(f"flows={key[6]}")
    if key[7] is not None:
        parts.append(f"shards={key[7]}")
    if key[8] is not None:
        parts.append(f"splice={'on' if key[8] else 'off'}")
    if key[9] is not None:
        parts.append(f"zerocopy={'on' if key[9] else 'off'}")
    if "recorder" in cell:
        parts.append(f"recorder={'on' if key[10] else 'off'}")
    if key[11] is not None:
        parts.append(f"family={key[11]}")
    if key[12] is not None:
        parts.append(f"backend={key[12]}")
    if key[13] is not None:
        parts.append(f"connections={key[13]}")
    if key[14] is not None:
        parts.append(f"timers={key[14]}")
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
