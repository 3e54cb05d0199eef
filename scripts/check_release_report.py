#!/usr/bin/env python3
"""Machine check for RELEASE_report.json (schema zdr.release_report.v1).

The release controller's report is not trusted on its word: this script
re-derives the controller's verdicts from the raw material the report
archives — per-scrape SLO samples, the SLO thresholds, and each stage's
disruption budget — and fails (exit 1) if the recorded decisions don't
follow from the data, if any stage burned more budget than it declared,
or if the rollout consumed client-visible disruption at all.

Checks, in order:
  * schema/shape: schema tag, required fields, at least one stage;
  * outcome: matches --expect-outcome when given, and is consistent
    with the per-stage outcomes (a completed rollout has only completed
    stages; a rolled-back one has exactly one rolled-back stage and
    everything after it skipped — blast-radius containment);
  * zero-disruption bar: no stage consumed client errors or sheds —
    the paper's claim, so it holds for clean AND rolled-back runs;
  * budgets: within_budget recomputed from consumed vs budget must
    agree with the recorded flag, and a completed stage must be within
    budget (a rolled-back stage may exceed only the dimension its
    rollback decision names as the cause);
  * decisions: every "observe" decision's level is recomputed from its
    archived sample + the report's thresholds + the stage's budget,
    replaying the evaluator's judgment (including the budget override);
    pause counts must match the decision stream;
  * evidence: a completed stage holds at least one ok "observe"
    between its last "batch_done" and its "complete" decision — a
    soak of failed scrapes alone is no evidence.

Usage:
  scripts/check_release_report.py RELEASE_report.json \
      [--expect-outcome completed|rolled_back|aborted]

Self-test: scripts/test_check_release_report.py (run by the CI lint
job).
"""

import argparse
import json
import sys

SCHEMA = "zdr.release_report.v1"

LEVELS = {"ok": 0, "soft": 1, "hard": 2}

# (budget key, consumed key, sample delta key) per budget dimension, in
# the controller's evaluation order — first breach wins the reason.
BUDGET_DIMS = [
    ("max_client_errors", "client_errors", "err_delta"),
    ("max_shed_requests", "shed_requests", "shed_delta"),
    ("max_mqtt_drops", "mqtt_drops", "mqtt_drop_delta"),
    ("max_drain_stragglers", "drain_stragglers", "straggler_delta"),
]


def judge(sample, slo):
    """Replays SloEvaluator::judge: returns (level, metric) where level
    is 0/1/2 (ok/soft/hard) and metric names the winning breach ("" when
    ok). Mirrors the C++ evaluation order exactly: the first breach at
    the worst level keeps the reason."""
    level, metric = 0, ""

    def breach(lv, m):
        nonlocal level, metric
        if lv > level:
            level, metric = lv, m

    requests = sample["ok_delta"] + sample["err_delta"]
    if requests >= slo["min_requests_for_rate"] and requests > 0:
        er = sample["err_delta"] / requests
        if er > slo["err_rate_hard"]:
            breach(2, "err_rate")
        elif er > slo["err_rate_soft"]:
            breach(1, "err_rate")
        sr = sample["shed_delta"] / requests
        if sr > slo["shed_rate_hard"]:
            breach(2, "shed_rate")
        elif sr > slo["shed_rate_soft"]:
            breach(1, "shed_rate")

    if sample["p99_ms"] > slo["p99_floor_ms"]:
        base = sample["baseline_p99_ms"]
        if base <= 0:
            base = slo["p99_floor_ms"]
        inflation = sample["p99_ms"] / base
        if inflation > slo["p99_inflation_hard"]:
            breach(2, "p99_inflation")
        elif inflation > slo["p99_inflation_soft"]:
            breach(1, "p99_inflation")

    for delta, soft, hard, name in [
        ("breaker_delta", "breaker_trips_soft", "breaker_trips_hard",
         "breaker_trips"),
        ("straggler_delta", "drain_stragglers_soft",
         "drain_stragglers_hard", "drain_stragglers"),
        ("mqtt_drop_delta", "mqtt_drops_soft", "mqtt_drops_hard",
         "mqtt_drops"),
    ]:
        if sample[delta] > slo[hard]:
            breach(2, name)
        elif sample[delta] > slo[soft]:
            breach(1, name)

    return level, metric


def budget_breach(budget, sample):
    """First budget dimension the sample exceeds, or "" (mirrors the
    controller's budgetBreach — not debounced, monotonic)."""
    for bkey, ckey, dkey in BUDGET_DIMS:
        if sample[dkey] > budget[bkey]:
            return ckey
    return ""


def check_stage(stage, slo, emit):
    findings = 0
    name = stage.get("name", "?")

    # The zero-disruption bar applies to every stage that ran, whatever
    # its outcome — even a rollback must not cost a client a response.
    consumed = stage["consumed"]
    if consumed["client_errors"] > 0 or consumed["shed_requests"] > 0:
        emit(
            f"stage {name}: client-visible disruption — "
            f"{consumed['client_errors']:.0f} errors, "
            f"{consumed['shed_requests']:.0f} sheds (bar is zero)"
        )
        findings += 1

    # within_budget is recomputed, never trusted.
    budget = stage["budget"]
    over = [
        f"{ckey} {consumed[ckey]:.0f} > {budget[bkey]:.0f}"
        for bkey, ckey, _ in BUDGET_DIMS
        if consumed[ckey] > budget[bkey]
    ]
    within = not over
    if within != stage["within_budget"]:
        emit(
            f"stage {name}: recorded within_budget={stage['within_budget']} "
            f"but recomputation says {within}"
            + (f" ({'; '.join(over)})" if over else "")
        )
        findings += 1
    if stage["outcome"] == "completed" and over:
        emit(f"stage {name}: completed over budget: {'; '.join(over)}")
        findings += 1
    if stage["outcome"] == "rolled_back" and over:
        # A rollback may legitimately burn the budget dimension that
        # CAUSED it (the decision names it); any other excess is real.
        cause = ""
        for d in stage.get("decisions", []):
            if d["action"] == "rollback" and d["reason"].startswith("budget "):
                cause = d["reason"].split()[1]
        unexplained = [o for o in over if o.split()[0] != cause]
        if unexplained:
            emit(
                f"stage {name}: rolled back but over budget on "
                f"{'; '.join(unexplained)} (not the rollback cause)"
            )
            findings += 1

    # Replay every archived sample through the evaluator + budget
    # override; the recorded level must follow from the data.
    pauses_seen = 0
    for i, d in enumerate(stage.get("decisions", [])):
        if d["action"] == "pause":
            pauses_seen += 1
            if not d["reason"]:
                emit(f"stage {name}: pause decision #{i} has no reason")
                findings += 1
        if d["action"] == "rollback" and not d["reason"]:
            emit(f"stage {name}: rollback decision #{i} has no reason")
            findings += 1
        if d["action"] != "observe" or "sample" not in d:
            continue
        level, metric = judge(d["sample"], slo)
        burn = budget_breach(budget, d["sample"])
        if burn:
            level, metric = 2, burn
        recorded = LEVELS.get(d["level"], -1)
        if recorded != level:
            emit(
                f"stage {name}: decision #{i} (t={d['t_ms']:.0f}ms) recorded "
                f"{d['level']} but sample re-derives "
                f"{['ok', 'soft', 'hard'][level]}"
                + (f" ({metric})" if metric else "")
            )
            findings += 1
        elif level > 0 and metric and not (
            d["reason"].startswith(metric)
            or d["reason"].startswith("budget " + metric)
        ):
            emit(
                f"stage {name}: decision #{i} breach reason "
                f"'{d['reason']}' does not match re-derived metric "
                f"'{metric}'"
            )
            findings += 1
    if pauses_seen != stage.get("pauses", 0):
        emit(
            f"stage {name}: pauses={stage.get('pauses')} but decision "
            f"stream records {pauses_seen} pause(s)"
        )
        findings += 1

    if stage["outcome"] == "completed":
        decisions = stage.get("decisions", [])
        actions = [d["action"] for d in decisions]
        start = max((i for i, a in enumerate(actions) if a == "batch_done"),
                    default=-1)
        end = actions.index("complete") if "complete" in actions \
            else len(actions)
        soak = decisions[start + 1:end]
        if not any(d["action"] == "observe" and d["level"] == "ok"
                   for d in soak):
            emit(
                f"stage {name}: completed with no ok observation after "
                f"its last batch ({len(soak)} soak decision(s))"
            )
            findings += 1
    return findings


def check(report, expect_outcome, emit):
    """Returns the finding count (0 = report is internally consistent
    and within every budget). Calls emit(message) per finding."""
    if report.get("schema") != SCHEMA:
        emit(f"schema is {report.get('schema')!r}, want {SCHEMA!r}")
        return 1
    for key in ("outcome", "slo", "stages", "hosts_released"):
        if key not in report:
            emit(f"report missing required field '{key}'")
            return 1
    stages = report["stages"]
    if not stages:
        emit("report has no stages")
        return 1

    findings = 0
    outcome = report["outcome"]
    if expect_outcome and outcome != expect_outcome:
        emit(f"outcome is '{outcome}', expected '{expect_outcome}'")
        findings += 1

    # Outcome ↔ stage-outcome consistency (blast-radius containment:
    # a rollback stops the train — exactly one stage rolls back and
    # nothing after it runs).
    stage_outcomes = [s.get("outcome") for s in stages]
    if outcome == "completed":
        bad = [s["name"] for s in stages if s["outcome"] != "completed"]
        if bad:
            emit(f"outcome completed but stages not completed: {bad}")
            findings += 1
    elif outcome == "rolled_back":
        rb = [i for i, o in enumerate(stage_outcomes) if o == "rolled_back"]
        if len(rb) != 1:
            emit(
                f"outcome rolled_back but {len(rb)} stages rolled back "
                f"(want exactly 1): {stage_outcomes}"
            )
            findings += 1
        else:
            after = stage_outcomes[rb[0] + 1:]
            if any(o != "skipped" for o in after):
                emit(
                    f"stages after the rolled-back one must be skipped, "
                    f"got {after}"
                )
                findings += 1

    # Host accounting must tie out.
    for top, per in (
        ("hosts_released", "hosts_released"),
        ("hosts_rolled_back", "hosts_rolled_back"),
    ):
        total = sum(s.get(per, 0) for s in stages)
        if report.get(top, 0) != total:
            emit(f"{top}={report.get(top)} but stages sum to {total}")
            findings += 1

    for stage in stages:
        findings += check_stage(stage, report["slo"], emit)
    return findings


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("report")
    ap.add_argument(
        "--expect-outcome",
        choices=["completed", "rolled_back", "aborted"],
        help="additionally require this rollout outcome",
    )
    args = ap.parse_args()

    try:
        with open(args.report) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"::error::release report gate failed to load input: {e}")
        return 1

    findings = check(
        report, args.expect_outcome, lambda msg: print(f"::error::{msg}")
    )
    if findings == 0:
        n = len(report["stages"])
        print(
            f"release report check: outcome={report['outcome']}, "
            f"{n} stage(s) consistent and within budget, zero "
            f"client-visible disruption"
        )
        return 0
    print(f"release report gate: {findings} finding(s) — failing the job")
    return 1


if __name__ == "__main__":
    sys.exit(main())
