"""Tests for the optimality-gap sweep (``repro optgap``)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.optgap import (
    DEFAULT_SEED,
    REPORT,
    SCHEMA,
    build_problems,
    generate_instance,
    run_optgap,
)

check_report = REPORT.check


def test_instances_are_deterministic_and_integral():
    a = generate_instance(3)
    b = generate_instance(3)
    assert [(j.job_id, j.submit_time, j.nodes, j.runtime) for j in a[0]] == [
        (j.job_id, j.submit_time, j.nodes, j.runtime) for j in b[0]
    ]
    assert a[2:] == b[2:]
    jobs, profile, now, omega = a
    for j in jobs:
        assert j.submit_time == int(j.submit_time)
        assert j.runtime == int(j.runtime)
        assert j.submit_time <= now
    for t, _free in profile.segments():
        assert t == int(t)
    assert omega == int(omega)
    # Different indices give different instances.
    c = generate_instance(4)
    assert [(j.submit_time, j.nodes, j.runtime) for j in c[0]] != [
        (j.submit_time, j.nodes, j.runtime) for j in jobs
    ]


def test_build_problems_same_leaf_set_per_heuristic():
    problems = build_problems(0)
    ids = {h: sorted(j.job_id for j in p.jobs) for h, p in problems.items()}
    assert len(set(map(tuple, ids.values()))) == 1  # same jobs, reordered
    omegas = {p.omega for p in problems.values()}
    assert len(omegas) == 1


def test_report_shape_and_invariants():
    report = REPORT.run(n_instances=3, budgets=(5, 40), max_jobs=5)
    assert report["schema"] == SCHEMA
    assert report["seed"] == DEFAULT_SEED
    assert len(report["instances"]) == 3
    assert {r["node_limit"] for r in report["rows"]} == {5, 40}
    for row in report["rows"]:
        assert row["n_instances"] == 3
        assert 0.0 <= row["frac_optimal"] <= 1.0
        assert row["mean_excess_gap_hours"] >= 0.0
        assert row["max_excess_gap_hours"] >= row["mean_excess_gap_hours"]
        assert len(row["excess_gap_hours"]) == 3
        assert all(g >= 0.0 for g in row["excess_gap_hours"])
    # The visited leaf set grows with the budget, so gaps are weakly
    # decreasing per (algorithm, instance).
    by_key = {
        (r["algorithm"], r["node_limit"]): r["excess_gap_hours"]
        for r in report["rows"]
    }
    for algorithm in ("dds", "lds"):
        for small, large in zip(by_key[(algorithm, 5)], by_key[(algorithm, 40)]):
            assert large <= small + 1e-12
    assert report["tolerance"]["node_limit"] == 40


def test_check_report_within_and_outside_tolerance():
    report = REPORT.run(n_instances=3, budgets=(5, 40), max_jobs=5)
    assert check_report(report, report) == []
    strict = json.loads(json.dumps(report))
    strict["tolerance"]["min_frac_optimal"] = 1.1
    failures = check_report(report, strict)
    assert failures and "frac_optimal" in failures[0]


def test_check_refuses_a_report_of_another_schema():
    """Not silently half-compared: the same refusal ``bench --check`` gives."""
    report = REPORT.run(n_instances=2, budgets=(16,), max_jobs=4)
    other = {**report, "schema": "repro-bench-search/v5"}
    (failure,) = check_report(report, other)
    assert "regenerate" in failure


def test_duplicate_budgets_collapse():
    report = run_optgap(n_instances=2, budgets=(16, 16), max_jobs=4)
    assert report["budgets"] == [16]
    assert all(r["n_instances"] == 2 for r in report["rows"])


def test_cli_optgap_writes_report_and_checks(tmp_path, capsys):
    out = tmp_path / "BENCH_optgap.json"
    code = main(["optgap", "--quick", "--instances", "2", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == SCHEMA
    assert report["quick"] is True
    assert "wrote" in capsys.readouterr().out
    # --check against the report we just wrote (same instances) passes.
    code = main(
        ["optgap", "--quick", "--instances", "2", "--out", str(out), "--check"]
    )
    assert code == 0
    assert "within tolerance" in capsys.readouterr().out


def test_cli_optgap_rejects_zero_instances(capsys):
    """Exit 2 with a message, not a ZeroDivisionError from the row maths."""
    assert main(["optgap", "--instances", "0"]) == 2
    assert "instances must be >= 1" in capsys.readouterr().err


def test_cli_optgap_check_missing_report(tmp_path, capsys):
    code = main(["optgap", "--check", "--out", str(tmp_path / "nope.json")])
    assert code == 2
    assert "no committed report" in capsys.readouterr().err


def test_cli_optgap_check_fails_loudly(tmp_path, capsys):
    out = tmp_path / "BENCH_optgap.json"
    assert main(["optgap", "--quick", "--instances", "2", "--out", str(out)]) == 0
    committed = json.loads(out.read_text())
    committed["tolerance"]["min_frac_optimal"] = 1.1
    committed["tolerance"]["max_mean_excess_gap_hours"] = -1.0
    out.write_text(json.dumps(committed))
    capsys.readouterr()
    code = main(
        ["optgap", "--quick", "--instances", "2", "--out", str(out), "--check"]
    )
    assert code == 1
    assert "TOLERANCE FAIL" in capsys.readouterr().out


@pytest.mark.tier2
def test_committed_report_is_current():
    """The committed BENCH_optgap.json must match what the code produces
    for its own recorded parameters (same seed, instances, budgets) —
    i.e. the file is regenerated whenever the sweep changes."""
    from pathlib import Path

    committed_path = Path(__file__).resolve().parent.parent / "BENCH_optgap.json"
    committed = json.loads(committed_path.read_text())
    assert committed["schema"] == SCHEMA
    assert committed["n_instances"] >= 20
    fresh = run_optgap(
        quick=committed["quick"],
        n_instances=committed["n_instances"],
        budgets=tuple(committed["budgets"]),
        seed=committed["seed"],
        max_jobs=committed["max_jobs"],
    )
    assert fresh["rows"] == committed["rows"]
