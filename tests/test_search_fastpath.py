"""Differential tests: the fast search engine against the reference spec.

The ``"fast"`` engine (allocation-free DFS over an undo-stack profile;
see :mod:`repro.core.search`) carries a hard contract: bit-identical
``SearchResult`` fields — order, starts, score, node accounting — on
every decision.  These tests enforce it three ways: head-to-head on
fixed search problems, per-decision over a full workload replay, and
under the ``REPRO_SANITIZE=1`` invariant checker.

Fingerprinting, replay plumbing and instance builders live in
``tests/oracles.py`` (shared with the compiled-kernel and exact-solver
differential suites).
"""

from __future__ import annotations

import pytest

from repro.core.scheduler import SearchSchedulingPolicy
from repro.core.search import DiscrepancySearch
from repro.simulator.engine import Simulation
from repro.util.sanitize import sanitized
from repro.workloads.synthetic import generate_month
from tests.oracles import build_problem, fingerprint, replay_workload


@pytest.mark.parametrize("algorithm,heuristic", [("dds", "lxf"), ("lds", "fcfs")])
@pytest.mark.parametrize("L", [137, 2000, None])
def test_engines_bit_identical_on_fixed_problem(algorithm, heuristic, L):
    """Same problem, both engines, every result field equal — including
    at an odd budget that truncates mid-iteration, and exhaustively."""
    problem = build_problem(heuristic, n_jobs=30 if L is not None else 7)
    fast = DiscrepancySearch(algorithm, node_limit=L, engine="fast")
    reference = DiscrepancySearch(algorithm, node_limit=L, engine="reference")
    assert fingerprint(fast.search(problem)) == fingerprint(
        reference.search(problem)
    )


@pytest.mark.tier2
def test_engines_bit_identical_on_full_workload_replay():
    """Every decision of a month-long replay is bit-identical between the
    engines, and so is everything downstream of the decisions."""
    fast_decisions, fast_run = replay_workload("fast")
    ref_decisions, ref_run = replay_workload("reference")
    assert len(fast_decisions) == len(ref_decisions) > 0
    for i, (f, r) in enumerate(zip(fast_decisions, ref_decisions)):
        assert f == r, f"decision {i} diverged between engines"
    assert fast_run.decision_count == ref_run.decision_count
    assert fast_run.utilization == ref_run.utilization
    assert fast_run.avg_queue_length == ref_run.avg_queue_length
    assert [
        (j.job_id, j.start_time, j.end_time) for j in fast_run.jobs
    ] == [(j.job_id, j.start_time, j.end_time) for j in ref_run.jobs]


@pytest.mark.tier2
def test_fast_engine_clean_under_sanitizer():
    """A sanitized replay exercises the profile invariant checks around
    every decision the fast engine makes."""
    with sanitized(True):
        workload = generate_month("2003-07", seed=11, scale=0.01)
        policy = SearchSchedulingPolicy(
            algorithm="dds", heuristic="lxf", node_limit=200, engine="fast"
        )
        Simulation(
            workload.fresh_jobs(), policy, workload.cluster, window=workload.window
        ).run()
