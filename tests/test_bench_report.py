"""The ``repro bench`` report machinery, exercised at toy budgets.

``run_bench`` is the row function behind ``BENCH_search.json`` (and the
README table derived from it), so its row families and identity asserts
get tier-1 coverage here — at L small enough to run in milliseconds —
together with what :class:`~repro.experiments.benchreport.BenchReport`
adds around it: the header, the tolerance band ``--check`` judges
against, the schema refusal and the ``bench``/``optgap`` CLI handler's
count validation.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cli import main
from repro.core.ckernel import default_engine, have_compiled
from repro.experiments import bench as bench_mod
from repro.experiments.bench import (
    CRITERIA_POLICY,
    PAPER_OVERHEAD,
    POLICIES,
    REPORT,
    run_bench,
)

check_bench = REPORT.check

#: Small enough for milliseconds, big enough to truncate mid-iteration
#: (the 30-job decision point's iteration 0 alone costs 30 nodes).
TOY_LIMITS = (40, 80)


@pytest.fixture(scope="module")
def report():
    return REPORT.run(repeats=1, limits=TOY_LIMITS)


def test_report_has_every_row_family(report):
    """Per (policy, L): fast, reference, prune-ablation — a compiled row
    exactly when the kernel is importable on this host, and for the one
    criteria policy the evaluator form on both python engines."""
    assert report["schema"] == bench_mod.SCHEMA
    rows = report["configs"]
    expected = [
        ("fast", False, "two-level"),
        ("fast", True, "two-level"),
        ("reference", False, "two-level"),
    ]
    if have_compiled():
        expected.insert(0, ("compiled", False, "two-level"))
    criteria = [("fast", False, "criteria"), ("reference", False, "criteria")]
    for algorithm, heuristic in POLICIES:
        for L in TOY_LIMITS:
            match = [
                r
                for r in rows
                if r["algorithm"] == algorithm and r["node_limit"] == L
            ]
            engines = sorted((r["engine"], r["prune"], r["objective"]) for r in match)
            extra = criteria if (algorithm, heuristic) == CRITERIA_POLICY else []
            assert engines == sorted(expected + extra)
    for row in rows:
        assert row["nodes_per_second"] > 0


def test_paper_overhead_block_is_the_papers_pair(report):
    """§2.3's measurement — 1K and 8K nodes in the 30-job tree — whatever
    budget sweep the rows ran at, on the engine a policy defaults to here
    and on ``fast`` (one row where they coincide), the budget spent."""
    block = report["paper_overhead"]
    assert (block["policy"], block["n_jobs"]) == ("DDS/lxf/dynB", 30)
    engines = list(dict.fromkeys((default_engine(), "fast")))
    assert [(r["node_limit"], r["paper_ms"], r["engine"]) for r in block["rows"]] == [
        (L, ms, engine) for L, ms in PAPER_OVERHEAD for engine in engines
    ]
    for row in block["rows"]:
        assert row["nodes_visited"] == row["node_limit"]
        assert row["ms_per_decision"] > 0
    assert "ms on fast (paper: 30/65 ms)" in REPORT.headline(report)


def test_speedup_key_families_are_complete(report):
    plain = {k for k in report["speedups"] if ":" not in k}
    prune = {k for k in report["speedups"] if ":prune" in k}
    compiled = {k for k in report["speedups"] if k.endswith(":compiled")}
    criteria = {k for k in report["speedups"] if k.endswith(":criteria")}
    assert len(plain) == len(POLICIES) * len(TOY_LIMITS)
    assert len(prune) == len(plain)
    assert len(criteria) == len(TOY_LIMITS)
    assert len(compiled) == (len(plain) if have_compiled() else 0)
    assert all(v > 0 for v in report["speedups"].values())


def test_compiled_available_field_is_honest(report):
    """The report records whether the kernel was measured, and compiled
    rows exist exactly when it says so."""
    assert report["compiled_available"] == have_compiled()
    has_rows = any(r["engine"] == "compiled" for r in report["configs"])
    assert has_rows == report["compiled_available"]


def test_header_and_tolerance_are_the_report_types(report):
    """Header fields, the committed band and the body keys — and no
    end-to-end section: whole-run throughput is perfbench's to measure."""
    assert report["benchmark"] == "search-hotpath-30-jobs"
    assert report["quick"] is False
    assert {"python", "implementation", "machine"} <= set(report)
    assert report["tolerance"] == bench_mod.TOLERANCE
    assert report["repeats"] == 1
    assert "e2e" not in report


def test_prune_quality_assert_fires_on_a_worse_score(monkeypatch):
    """A pruned search that scores worse than the unpruned one at the same
    budget must abort the report — pruning may only ever help."""
    real = bench_mod.time_search

    def skewed(problem, algorithm, node_limit, engine, **kwargs):
        result, seconds = real(problem, algorithm, node_limit, engine, **kwargs)
        if kwargs.get("prune"):
            result.best_score = dataclasses.replace(
                result.best_score,
                total_slowdown=result.best_score.total_slowdown + 1.0,
            )
        return result, seconds

    monkeypatch.setattr(bench_mod, "time_search", skewed)
    with pytest.raises(AssertionError, match="pruned search is worse"):
        run_bench(repeats=1, limits=(40,))


@pytest.mark.skipif(not have_compiled(), reason="compiled kernel not built")
def test_compiled_identity_assert_fires_on_divergence(monkeypatch):
    """A compiled result differing from fast by one field aborts the
    report — a speedup over a different answer is meaningless."""
    real = bench_mod.time_search

    def skewed(problem, algorithm, node_limit, engine, **kwargs):
        result, seconds = real(problem, algorithm, node_limit, engine, **kwargs)
        if engine == "compiled":
            result.nodes_visited += 1
        return result, seconds

    monkeypatch.setattr(bench_mod, "time_search", skewed)
    with pytest.raises(AssertionError, match="compiled engine disagrees"):
        run_bench(repeats=1, limits=(40,))


def test_check_bench_accepts_itself(report):
    assert check_bench(report, report) == []


def test_check_bench_flags_collapsed_throughput(report):
    degraded = json.loads(json.dumps(report))  # deep copy
    for row in degraded["configs"]:
        row["nodes_per_second"] *= 0.2
    for key in degraded["speedups"]:
        degraded["speedups"][key] *= 0.2
    failures = check_bench(degraded, report)
    assert failures
    assert any("nodes/s below" in f for f in failures)
    assert any("speedup" in f for f in failures)


def test_check_bench_ignores_machine_dependent_families(report):
    """The prune ablation is reported, not gated; the fast/reference
    (two-level and criteria) and compiled/reference families are the
    banded ones."""
    degraded = json.loads(json.dumps(report))
    for key in degraded["speedups"]:
        if ":prune" in key:
            degraded["speedups"][key] *= 0.01
    assert check_bench(degraded, report) == []


def test_check_bench_bands_the_criteria_family(report):
    """The evaluator path's fast/reference ratio is held to the same band
    as the two-level one: a fast engine that lost its lead there fails."""
    degraded = json.loads(json.dumps(report))
    for key in degraded["speedups"]:
        if key.endswith(":criteria"):
            degraded["speedups"][key] *= 0.2
    failures = check_bench(degraded, report)
    assert failures and all("criteria fast/reference" in f for f in failures)


def test_criteria_identity_assert_fires_on_divergence(monkeypatch):
    real = bench_mod.time_search

    def skewed(problem, algorithm, node_limit, engine, **kwargs):
        result, seconds = real(problem, algorithm, node_limit, engine, **kwargs)
        if problem.evaluator is not None and engine == "reference":
            result.leaves_evaluated += 1
        return result, seconds

    monkeypatch.setattr(bench_mod, "time_search", skewed)
    with pytest.raises(AssertionError, match=":criteria"):
        run_bench(repeats=1, limits=(40,))


@pytest.mark.skipif(not have_compiled(), reason="compiled kernel not built")
def test_check_bench_bands_the_compiled_family(report):
    """A collapsed compiled/reference ratio must fail the check — but only
    when both reports actually measured the kernel."""
    degraded = json.loads(json.dumps(report))
    for key in degraded["speedups"]:
        if key.endswith(":compiled"):
            degraded["speedups"][key] *= 0.01
    failures = check_bench(degraded, report)
    assert any("compiled/reference" in f for f in failures)
    # A pure-python fresh run never fails against a compiled baseline.
    degraded["compiled_available"] = False
    assert check_bench(degraded, report) == []


def test_check_bench_refuses_an_older_schema(report):
    """A committed report of another schema is not silently half-compared:
    the check fails and says to regenerate it."""
    old = json.loads(json.dumps(report))
    old["schema"] = "repro-bench-search/v5"
    (failure,) = check_bench(report, old)
    assert "regenerate" in failure


def test_quick_run_checks_against_full_baseline(report):
    """A fresh quick run (fewer budgets) must compare cleanly against a
    committed full report — missing configurations are skipped, not
    failed."""
    fresh = json.loads(json.dumps(report))
    fresh["configs"] = [r for r in fresh["configs"] if r["node_limit"] == 40]
    fresh["speedups"] = {
        k: v for k, v in fresh["speedups"].items() if "L=40" in k
    }
    assert check_bench(fresh, report) == []


def test_cli_bench_rejects_zero_repeats(capsys):
    """A count the row function cannot run with is a usage error (exit 2),
    not a bare AssertionError out of the timing loop."""
    assert main(["bench", "--repeats", "0"]) == 2
    assert "repeats must be >= 1" in capsys.readouterr().err


def test_cli_bench_writes_a_current_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bench_mod, "QUICK_LIMITS", (40,))
    out = tmp_path / "BENCH_search.json"
    assert main(["bench", "--quick", "--repeats", "1", "--out", str(out)]) == 0
    written = json.loads(out.read_text())
    assert written["schema"] == bench_mod.SCHEMA and written["quick"] is True
    assert "worst fast/reference speedup" in capsys.readouterr().out
