"""The service benchmark and its tolerance check (``experiments.loadgen``).

Mirrors ``test_bench_report.py``: a tiny real run must satisfy its own
tolerance band, the structural guarantees (every request answered, zero
errors) are checked exactly, and the committed ``BENCH_service.json``
must stay well-formed so the ``--check`` CI smoke has a baseline.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.loadgen import (
    SCHEMA,
    TOLERANCE,
    check_loadgen,
    run_loadgen,
    write_loadgen,
)


#: The benchmark measures the fault-free service; injected faults would
#: legitimately perturb its exact status counts.
pytestmark = pytest.mark.fault_sensitive


@pytest.fixture(scope="module")
def tiny_report():
    """One small but real service run shared by the module's tests."""
    return run_loadgen(tenants=1, requests=6, seed=7)


def test_report_shape_and_structural_guarantees(tiny_report):
    assert tiny_report["schema"] == SCHEMA
    assert tiny_report["tolerance"] == TOLERANCE
    results = tiny_report["results"]
    assert results["total_requests"] == 6
    assert results["answered"] == 6
    assert results["statuses"]["ok"] == 6
    assert results["statuses"]["error"] == 0
    assert results["decisions"] >= 6  # at least one decision per request
    routes = results["routes"]  # every request reached an engine, one way
    assert routes["on_loop"] + routes["offloaded"] == 6
    assert results["throughput_rps"] > 0
    latency = results["latency_seconds"]
    assert 0 <= latency["p50"] <= latency["p90"] <= latency["p99"] <= latency["max"]


def test_report_is_within_its_own_tolerance(tiny_report):
    assert check_loadgen(tiny_report, tiny_report) == []


def test_check_flags_throughput_collapse_and_slow_p99(tiny_report):
    committed = json.loads(json.dumps(tiny_report))
    committed["results"]["throughput_rps"] = (
        tiny_report["results"]["throughput_rps"] * 1e6
    )
    committed["results"]["latency_seconds"]["p99"] = (
        tiny_report["results"]["latency_seconds"]["p99"] / 1e6
    )
    failures = check_loadgen(tiny_report, committed)
    assert any("throughput" in f for f in failures)
    assert any("p99" in f for f in failures)


def test_check_flags_structural_violations(tiny_report):
    broken = json.loads(json.dumps(tiny_report))
    broken["results"]["answered"] -= 1
    broken["results"]["statuses"]["error"] = 2
    broken["results"]["deadline_exceeded"] = broken["results"]["total_requests"]
    failures = check_loadgen(broken, tiny_report)
    assert any("answer every accepted request" in f for f in failures)
    assert any("zero transport errors" in f for f in failures)
    assert any("deadline" in f for f in failures)


def test_write_loadgen_produces_loadable_json(tmp_path):
    path = tmp_path / "bench.json"
    report = write_loadgen(path, tenants=1, requests=3, seed=7)
    on_disk = json.loads(path.read_text())
    assert on_disk["schema"] == SCHEMA
    assert on_disk["results"]["total_requests"] == report["results"]["total_requests"]


def test_committed_report_exists_and_is_checkable():
    """The repo carries a committed baseline the CI smoke judges against."""
    committed_path = Path(__file__).resolve().parents[1] / "BENCH_service.json"
    committed = json.loads(committed_path.read_text())
    assert committed["schema"] == SCHEMA
    assert set(TOLERANCE) <= set(committed["tolerance"])
    results = committed["results"]
    assert results["answered"] == results["total_requests"]
    assert results["statuses"]["error"] == 0
    routes = results["routes"]
    assert routes["on_loop"] + routes["offloaded"] == results["total_requests"]
    # The committed run satisfies its own band (structural checks + the
    # identity performance comparison).
    assert check_loadgen(committed, committed) == []
