#!/usr/bin/env python3
"""Self-test for check_bench_regression.py.

pytest-compatible (every case is a test_* function with bare asserts)
but also runnable standalone — `python3 scripts/test_check_bench_regression.py`
discovers and runs the cases itself so CI needs no extra packages.
"""

import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench_regression as cbr  # noqa: E402

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_bench_regression.py")


def run_check(current, baseline, tolerance=0.30):
    findings = []
    n = cbr.check(current, baseline, tolerance, findings.append)
    return n, findings


def http_cell(**over):
    cell = {
        "http_workers": 4,
        "errors": 0,
        "rps": 50000.0,
        "p99_ms": 5.0,
    }
    cell.update(over)
    return cell


def udp_cell(**over):
    cell = {
        "udp_workers": 4,
        "datagrams_per_sec": 200000.0,
        "syscalls_per_datagram": 0.125,
        "p99_burst_ms": 2.0,
    }
    cell.update(over)
    return cell


def relay_cell(**over):
    cell = {
        "mode": "proxy_e2e",
        "http_workers": 1,
        "errors": 0,
        "rps": 3300.0,
        "client_p99_ms": 2.4,
        "copy_bytes_per_req": 1572000.0,
        "syscalls_per_req": 14.3,
    }
    cell.update(over)
    return cell


def idle_cell(**over):
    cell = {
        "family": "idle",
        "backend": "io_uring",
        "connections": 2000,
        "idle_conn_kb": 0.3,
        "wakeup_p99_ns": 15000.0,
    }
    cell.update(over)
    return cell


def timer_cell(**over):
    cell = {
        "family": "timers",
        "timers": 32768,
        "arm_ns": 300.0,
        "cancel_ns": 50.0,
        "fire_ns": 100.0,
    }
    cell.update(over)
    return cell


def bench(*cells, smoke=True):
    return {"bench": "x", "smoke": smoke, "cells": list(cells)}


def test_identical_runs_are_clean():
    n, findings = run_check(bench(http_cell()), bench(http_cell()))
    assert n == 0, findings


def test_udp_cells_key_on_workers():
    # Same metrics, different udp_workers — must not match.
    cur = bench(udp_cell(udp_workers=1))
    base = bench(udp_cell(udp_workers=4))
    n, findings = run_check(cur, base)
    assert n == 1
    assert "missing from baseline" in findings[0]
    assert "udp_workers=1" in findings[0]


def test_syscalls_per_datagram_regression_detected():
    # 0.125 -> 0.5: lower-is-better metric grew 4x, well past floor+tolerance.
    cur = bench(udp_cell(syscalls_per_datagram=0.5))
    base = bench(udp_cell())
    n, findings = run_check(cur, base)
    assert n == 1
    assert "syscalls_per_datagram" in findings[0]


def test_syscalls_per_datagram_noise_floor():
    # +0.03 absolute is under the 0.05 floor even though it is +24%.
    cur = bench(udp_cell(syscalls_per_datagram=0.155))
    base = bench(udp_cell())
    n, findings = run_check(cur, base)
    assert n == 0, findings


def test_datagrams_per_sec_drop_detected():
    cur = bench(udp_cell(datagrams_per_sec=100000.0))  # -50%
    base = bench(udp_cell())
    n, findings = run_check(cur, base)
    assert n == 1
    assert "datagrams_per_sec" in findings[0]


def test_improvement_never_flagged():
    cur = bench(udp_cell(syscalls_per_datagram=0.01,
                         datagrams_per_sec=900000.0))
    base = bench(udp_cell())
    n, findings = run_check(cur, base)
    assert n == 0, findings


def test_smoke_mismatch_skips():
    cur = bench(udp_cell(syscalls_per_datagram=5.0), smoke=False)
    base = bench(udp_cell(), smoke=True)
    n, findings = run_check(cur, base)
    assert n == 0, findings


def test_empty_current_is_a_finding():
    n, findings = run_check(bench(), bench(udp_cell()))
    assert n == 1
    assert "no cells" in findings[0]


def test_zero_baseline_growth_detected():
    cur = bench(http_cell(shed_rate=0.2))
    base = bench(http_cell(shed_rate=0.0))
    n, findings = run_check(cur, base)
    assert n == 1
    assert "shed_rate" in findings[0]


def test_cell_errors_are_a_finding():
    n, findings = run_check(bench(http_cell(errors=3)), bench(http_cell()))
    assert n == 1
    assert "request errors" in findings[0]


def test_relay_cell_keys_on_mode():
    # A cell of another mode never matches the streamed-response cell.
    cur = bench(relay_cell(mode="tunnel_chain"))
    base = bench(relay_cell())
    n, findings = run_check(cur, base)
    assert n == 1
    assert "missing from baseline" in findings[0]
    assert "mode=tunnel_chain" in findings[0]


def test_relay_copy_bytes_rebuffering_detected():
    # The body re-buffered whole at the edge: one more 256 KiB pass per
    # request (+17%) is past the 15% gate tolerance.
    cur = bench(relay_cell(copy_bytes_per_req=1572000.0 + 262144.0))
    base = bench(relay_cell())
    n, findings = run_check(cur, base, tolerance=0.15)
    assert n == 1
    assert "copy_bytes_per_req" in findings[0]


def test_relay_copy_bytes_noise_floor():
    # +200 B/request is under the 256 B floor: header-size drift, not
    # payload re-entering userspace.
    cur = bench(relay_cell(copy_bytes_per_req=1572200.0))
    base = bench(relay_cell())
    n, findings = run_check(cur, base, tolerance=0.0)
    assert n == 0, findings


def test_relay_client_latency_not_policed():
    # Client p99 is loopback timing noise; it rides an ungated key.
    cur = bench(relay_cell(client_p99_ms=40.0))
    base = bench(relay_cell())
    n, findings = run_check(cur, base)
    assert n == 0, findings


def test_relay_syscalls_per_req_regression_detected():
    cur = bench(relay_cell(syscalls_per_req=28.6))  # 2x
    base = bench(relay_cell())
    n, findings = run_check(cur, base)
    assert n == 1
    assert "syscalls_per_req" in findings[0]


def test_metrics_cells_key_on_recorder():
    # Same metrics, recorder off vs on — must not match the baseline
    # cell (the recorder-off cell is the overhead control).
    cur = bench(http_cell(tracing=True, recorder=False))
    base = bench(http_cell(tracing=True, recorder=True))
    n, findings = run_check(cur, base)
    assert n == 1
    assert "missing from baseline" in findings[0]
    assert "recorder=off" in findings[0]


def test_engine_cells_key_on_backend():
    # Same metrics, epoll vs io_uring — the backend dimension must
    # split the cells or an epoll run could be graded against the
    # ring's baseline.
    cur = bench(idle_cell(backend="epoll"))
    base = bench(idle_cell())
    n, findings = run_check(cur, base)
    assert n == 1
    assert "missing from baseline" in findings[0]
    assert "backend=epoll" in findings[0]
    assert "family=idle" in findings[0] and "connections=2000" in findings[0]


def test_engine_timer_cells_key_on_population():
    cur = bench(timer_cell(timers=1000))
    base = bench(timer_cell())
    n, findings = run_check(cur, base)
    assert n == 1
    assert "missing from baseline" in findings[0]
    assert "family=timers" in findings[0] and "timers=1000" in findings[0]


def test_engine_idle_conn_kb_regression_detected():
    # 0.3 -> 1.5 KiB/conn: per-connection engine bookkeeping grew past
    # the 0.5 floor and the tolerance.
    cur = bench(idle_cell(idle_conn_kb=1.5))
    base = bench(idle_cell())
    n, findings = run_check(cur, base)
    assert n == 1
    assert "idle_conn_kb" in findings[0]


def test_engine_arm_ns_regression_detected():
    # 300 -> 3000 ns at a standing 32k population: the arm path
    # degraded to something population-sized.
    cur = bench(timer_cell(arm_ns=3000.0))
    base = bench(timer_cell())
    n, findings = run_check(cur, base)
    assert n == 1
    assert "arm_ns" in findings[0]


def test_engine_fire_ns_regression_detected():
    # 100 -> 1000 ns per due timer: the fire path blew up.
    cur = bench(timer_cell(fire_ns=1000.0))
    base = bench(timer_cell())
    n, findings = run_check(cur, base)
    assert n == 1
    assert "fire_ns" in findings[0]


def test_budget_within_ceiling_is_clean():
    findings = []
    n = cbr.check_budgets({"recorder_rps_delta": 0.01},
                          [("recorder_rps_delta", 0.02)], findings.append)
    assert n == 0, findings


def test_budget_breach_detected():
    findings = []
    n = cbr.check_budgets({"recorder_rps_delta": 0.05},
                          [("recorder_rps_delta", 0.02)], findings.append)
    assert n == 1
    assert "budget breach" in findings[0]


def test_budget_missing_metric_is_a_finding():
    findings = []
    n = cbr.check_budgets({}, [("recorder_rps_delta", 0.02)],
                          findings.append)
    assert n == 1
    assert "missing" in findings[0]


def _run_cli(cur, base, *extra):
    with tempfile.TemporaryDirectory() as d:
        cur_p = os.path.join(d, "cur.json")
        base_p = os.path.join(d, "base.json")
        with open(cur_p, "w") as f:
            json.dump(cur, f)
        with open(base_p, "w") as f:
            json.dump(base, f)
        return subprocess.run(
            [sys.executable, SCRIPT, cur_p, base_p, *extra],
            capture_output=True, text=True)


def test_cli_warn_mode_exits_zero_on_regression():
    r = _run_cli(bench(udp_cell(syscalls_per_datagram=5.0)),
                 bench(udp_cell()))
    assert r.returncode == 0, r.stdout + r.stderr
    assert "::warning::" in r.stdout


def test_cli_gate_mode_fails_on_regression():
    r = _run_cli(bench(udp_cell(syscalls_per_datagram=5.0)),
                 bench(udp_cell()), "--gate")
    assert r.returncode == 1, r.stdout + r.stderr
    assert "::error::" in r.stdout


def test_cli_gate_mode_passes_clean_run():
    r = _run_cli(bench(udp_cell()), bench(udp_cell()), "--gate",
                 "--tolerance", "0.15")
    assert r.returncode == 0, r.stdout + r.stderr


def test_cli_gate_budget_breach_fails():
    cur = bench(udp_cell())
    cur["recorder_rps_delta"] = 0.09
    r = _run_cli(cur, bench(udp_cell()), "--gate",
                 "--budget", "recorder_rps_delta=0.02")
    assert r.returncode == 1, r.stdout + r.stderr
    assert "budget breach" in r.stdout


def test_cli_budget_applies_even_when_smoke_mismatch_skips_cells():
    # The baseline comparison is skipped (smoke flags differ) but the
    # budget is an absolute claim about the current run and still fails.
    cur = bench(udp_cell(), smoke=False)
    cur["recorder_rps_delta"] = 0.09
    r = _run_cli(cur, bench(udp_cell(), smoke=True), "--gate",
                 "--budget", "recorder_rps_delta=0.02")
    assert r.returncode == 1, r.stdout + r.stderr
    assert "budget breach" in r.stdout


def test_cli_gate_mode_fails_on_missing_baseline_file():
    with tempfile.TemporaryDirectory() as d:
        cur_p = os.path.join(d, "cur.json")
        with open(cur_p, "w") as f:
            json.dump(bench(udp_cell()), f)
        r = subprocess.run(
            [sys.executable, SCRIPT, cur_p,
             os.path.join(d, "nope.json"), "--gate"],
            capture_output=True, text=True)
        assert r.returncode == 1, r.stdout + r.stderr


def main():
    cases = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in cases:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as e:
            failed += 1
            print(f"FAIL {name}: {e}")
    print(f"{len(cases) - failed}/{len(cases)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
