#!/usr/bin/env python3
"""Self-test for check_release_report.py.

pytest-compatible (every case is a test_* function with bare asserts)
but also runnable standalone — `python3 scripts/test_check_release_report.py`
discovers and runs the cases itself so CI needs no extra packages.

The fixtures are miniature zdr.release_report.v1 documents: the point
is that the checker re-derives verdicts from samples + thresholds +
budgets, so each negative case corrupts exactly one piece of evidence
and expects exactly one finding.
"""

import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_release_report as crr  # noqa: E402

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_release_report.py")


def slo(**over):
    t = {
        "err_rate_soft": 0.002, "err_rate_hard": 0.01,
        "min_requests_for_rate": 20,
        "p99_inflation_soft": 2.0, "p99_inflation_hard": 4.0,
        "p99_floor_ms": 20.0,
        "shed_rate_soft": 0.01, "shed_rate_hard": 0.05,
        "breaker_trips_soft": 3, "breaker_trips_hard": 10,
        "drain_stragglers_soft": 3, "drain_stragglers_hard": 8,
        "mqtt_drops_soft": 9, "mqtt_drops_hard": 24,
    }
    t.update(over)
    return t


def sample(**over):
    s = {
        "t_ns": 0, "ok_delta": 500, "err_delta": 0, "shed_delta": 0,
        "breaker_delta": 0, "straggler_delta": 1, "mqtt_drop_delta": 0,
        "p99_ms": 12.0, "baseline_p99_ms": 10.0,
    }
    s.update(over)
    return s


def observe(level="ok", reason="", **sample_over):
    return {"t_ms": 100.0, "action": "observe", "level": level,
            "reason": reason, "sample": sample(**sample_over)}


def stage(name="edge/pop0", outcome="completed", consumed=None,
          budget=None, decisions=None, pauses=0, within=None,
          hosts_released=2, hosts_rolled_back=0):
    consumed = consumed or {"client_errors": 0, "shed_requests": 0,
                            "mqtt_drops": 4, "drain_stragglers": 1}
    budget = budget or {"max_client_errors": 0, "max_shed_requests": 0,
                        "max_mqtt_drops": 8, "max_drain_stragglers": 2}
    if within is None:
        within = all(
            consumed[c] <= budget[b]
            for b, c, _ in crr.BUDGET_DIMS
        )
    return {
        "name": name, "tier": name.split("/")[0], "pop": "pop0",
        "hosts": ["h0", "h1"], "outcome": outcome,
        "batches_completed": 2, "hosts_released": hosts_released,
        "hosts_rolled_back": hosts_rolled_back, "pauses": pauses,
        "seconds": 1.0,
        "baseline": {"ok": 100, "err": 0, "shed": 0, "breaker_trips": 0,
                     "drain_stragglers": 0, "mqtt_drops": 0, "p99_ms": 10.0},
        "budget": budget, "consumed": consumed, "within_budget": within,
        "decisions": decisions if decisions is not None
        else [observe(), observe()],
    }


def report(*stages_, outcome="completed", **over):
    stages_ = list(stages_) or [stage()]
    r = {
        "schema": "zdr.release_report.v1",
        "outcome": outcome,
        "strategy": "zero_downtime",
        "total_seconds": 2.0,
        "hosts_released": sum(s["hosts_released"] for s in stages_),
        "hosts_rolled_back": sum(s["hosts_rolled_back"] for s in stages_),
        "scrapes": 10, "scrape_failures": 0,
        "slo": slo(),
        "stages": stages_,
    }
    r.update(over)
    return r


def run_check(rep, expect=None):
    findings = []
    n = crr.check(rep, expect, findings.append)
    return n, findings


def test_clean_report_passes():
    n, findings = run_check(report(), "completed")
    assert n == 0, findings


def test_wrong_schema_rejected():
    n, findings = run_check(report(schema="zdr.release_report.v0"))
    assert n == 1
    assert "schema" in findings[0]


def test_outcome_mismatch_detected():
    n, findings = run_check(report(), "rolled_back")
    assert n >= 1
    assert any("expected 'rolled_back'" in f for f in findings)


def test_client_errors_fail_the_zero_bar():
    bad = stage(consumed={"client_errors": 3, "shed_requests": 0,
                          "mqtt_drops": 0, "drain_stragglers": 0})
    n, findings = run_check(report(bad), "completed")
    assert any("client-visible disruption" in f for f in findings), findings


def test_sheds_fail_the_zero_bar():
    bad = stage(consumed={"client_errors": 0, "shed_requests": 7,
                          "mqtt_drops": 0, "drain_stragglers": 0})
    n, findings = run_check(report(bad), "completed")
    assert any("client-visible disruption" in f for f in findings), findings


def test_within_budget_flag_is_recomputed_not_trusted():
    # Consumed exceeds budget but the stage CLAIMS within_budget=true:
    # the checker must re-derive and catch the lie.
    lying = stage(consumed={"client_errors": 0, "shed_requests": 0,
                            "mqtt_drops": 20, "drain_stragglers": 0},
                  within=True)
    n, findings = run_check(report(lying), "completed")
    assert any("recomputation says False" in f for f in findings), findings


def test_completed_stage_over_budget_detected():
    over = stage(consumed={"client_errors": 0, "shed_requests": 0,
                           "mqtt_drops": 20, "drain_stragglers": 0})
    n, findings = run_check(report(over), "completed")
    assert any("over budget" in f for f in findings), findings


def test_rollback_may_burn_only_its_cause():
    # The rolled-back stage exceeded mqtt_drops, and its rollback
    # decision names that dimension as the cause — allowed.
    decisions = [
        observe(),
        {"t_ms": 200.0, "action": "rollback", "level": "hard",
         "reason": "budget mqtt_drops 20 > 8"},
        {"t_ms": 300.0, "action": "rollback_done", "level": "ok",
         "reason": ""},
    ]
    rb = stage(outcome="rolled_back",
               consumed={"client_errors": 0, "shed_requests": 0,
                         "mqtt_drops": 20, "drain_stragglers": 0},
               decisions=decisions, hosts_released=2, hosts_rolled_back=2)
    n, findings = run_check(report(rb, outcome="rolled_back"),
                            "rolled_back")
    assert n == 0, findings


def test_rollback_burning_unrelated_budget_detected():
    # Rolled back for latency but ALSO over the straggler budget: the
    # excess is not the rollback's cause, so it is a real finding.
    decisions = [
        observe(),
        {"t_ms": 200.0, "action": "rollback", "level": "hard",
         "reason": "pause grace exhausted: p99_inflation 5 > soft 2"},
    ]
    rb = stage(outcome="rolled_back",
               consumed={"client_errors": 0, "shed_requests": 0,
                         "mqtt_drops": 0, "drain_stragglers": 5},
               decisions=decisions, hosts_released=2, hosts_rolled_back=2)
    n, findings = run_check(report(rb, outcome="rolled_back"),
                            "rolled_back")
    assert any("not the rollback cause" in f for f in findings), findings


def test_observe_level_rederived_from_sample():
    # Sample shows a 3x p99 inflation (30ms over a 10ms baseline, floor
    # cleared) but the decision claims "ok": the replay must object.
    doctored = stage(decisions=[observe(level="ok", p99_ms=30.0)])
    n, findings = run_check(report(doctored), "completed")
    assert any("re-derives soft" in f for f in findings), findings


def test_observe_budget_override_rederived():
    # SLO thresholds alone say soft (mqtt 10 > soft 9), but the sample
    # also exceeds the stage BUDGET (10 > 8) — the controller escalates
    # budget burn straight to hard, and so must the replay.
    doctored = stage(
        outcome="rolled_back", hosts_rolled_back=2,
        consumed={"client_errors": 0, "shed_requests": 0,
                  "mqtt_drops": 10, "drain_stragglers": 0},
        decisions=[
            observe(level="soft", reason="mqtt_drops 10 > soft 9",
                    mqtt_drop_delta=10),
            {"t_ms": 200.0, "action": "rollback", "level": "hard",
             "reason": "budget mqtt_drops 10 > 8"},
        ])
    n, findings = run_check(report(doctored, outcome="rolled_back"),
                            "rolled_back")
    assert any("re-derives hard" in f for f in findings), findings


def test_breach_reason_must_name_the_metric():
    # Level matches (soft) but the recorded reason blames a different
    # metric than the sample supports.
    doctored = stage(decisions=[
        observe(level="soft", reason="err_rate 0.5 > soft 0.002",
                p99_ms=30.0),
    ])
    n, findings = run_check(report(doctored), "completed")
    assert any("does not match re-derived metric" in f
               for f in findings), findings


def test_pause_count_must_match_decisions():
    drifted = stage(pauses=2, decisions=[
        observe(),
        {"t_ms": 150.0, "action": "pause", "level": "soft",
         "reason": "p99_inflation 3 > soft 2"},
        {"t_ms": 400.0, "action": "resume", "level": "ok", "reason": ""},
    ])
    n, findings = run_check(report(drifted), "completed")
    assert any("decision stream records 1 pause" in f
               for f in findings), findings


def test_completion_needs_an_ok_soak_sample():
    def decision(action, reason=""):
        return {"t_ms": 200.0, "action": action, "level": "ok",
                "reason": reason}
    blind_soak = stage(decisions=[
        observe(),
        decision("batch_done"),
        decision("scrape_failure", "scrape timed out"),
        decision("scrape_failure", "scrape timed out"),
        decision("complete"),
    ])
    n, findings = run_check(report(blind_soak), "completed")
    assert n == 1, findings
    assert "no ok observation after its last batch" in findings[0]


def test_rolled_back_requires_skipped_tail():
    rb = stage(name="edge/pop0", outcome="rolled_back",
               hosts_rolled_back=2,
               decisions=[observe(), {"t_ms": 1, "action": "rollback",
                                      "level": "hard", "reason": "x"}])
    running_tail = stage(name="origin/pop0", outcome="completed")
    n, findings = run_check(report(rb, running_tail,
                                   outcome="rolled_back"), "rolled_back")
    assert any("must be skipped" in f for f in findings), findings


def test_host_accounting_must_tie_out():
    n, findings = run_check(report(stage(), hosts_released=99),
                            "completed")
    assert any("hosts_released=99" in f for f in findings), findings


def test_empty_stages_rejected():
    n, findings = run_check(report(stages=[]))
    assert n == 1
    assert "no stages" in findings[0]


def _run_cli(rep, *extra):
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "report.json")
        with open(p, "w") as f:
            json.dump(rep, f)
        return subprocess.run(
            [sys.executable, SCRIPT, p, *extra],
            capture_output=True, text=True)


def test_cli_passes_clean_report():
    r = _run_cli(report(), "--expect-outcome", "completed")
    assert r.returncode == 0, r.stdout + r.stderr
    assert "zero client-visible disruption" in r.stdout


def test_cli_fails_on_disruption():
    bad = stage(consumed={"client_errors": 5, "shed_requests": 0,
                          "mqtt_drops": 0, "drain_stragglers": 0})
    r = _run_cli(report(bad))
    assert r.returncode == 1, r.stdout + r.stderr
    assert "::error::" in r.stdout


def test_cli_fails_on_missing_file():
    r = subprocess.run(
        [sys.executable, SCRIPT, "/nonexistent/report.json"],
        capture_output=True, text=True)
    assert r.returncode == 1


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
