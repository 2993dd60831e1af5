"""Tests for the node-limited anytime LDS/DDS search engine."""

from __future__ import annotations

import itertools

import pytest

from repro.core.objective import DynamicBound, FixedBound, ObjectiveConfig
from repro.core.profile import AvailabilityProfile
from repro.core.schedule_builder import build_schedule
from repro.core.search import DiscrepancySearch, SearchProblem, SearchResult
from repro.util.timeunits import HOUR

from tests.conftest import make_job


def _problem(jobs, capacity=4, now=0.0, omega=0.0, profile=None):
    return SearchProblem(
        jobs=tuple(jobs),
        profile=profile or AvailabilityProfile(capacity, origin=now),
        now=now,
        omega=omega,
        objective=ObjectiveConfig(bound=FixedBound(omega)),
        use_actual_runtime=True,
    )


def _brute_force_best(jobs, capacity, now, omega, profile=None):
    """Score every permutation with the reference schedule builder."""
    cfg = ObjectiveConfig(bound=FixedBound(omega))
    profile = profile or AvailabilityProfile(capacity, origin=now)
    best = None
    for perm in itertools.permutations(jobs):
        placed = build_schedule(perm, profile, now)
        score = cfg.score_schedule(placed, now, omega=omega)
        key = (score.total_excessive_wait, score.total_slowdown)
        if best is None or key < best:
            best = key
    return best


def test_empty_problem():
    result = DiscrepancySearch("dds", node_limit=10).search(_problem([]))
    assert result.best_order == ()
    assert result.nodes_visited == 0


def test_single_job_starts_now_if_machine_free():
    job = make_job(job_id=1, submit=0.0, nodes=2, runtime=HOUR, waiting=True)
    result = DiscrepancySearch("dds", node_limit=10).search(_problem([job]))
    assert result.best_starts[1] == 0.0
    assert result.jobs_startable_now(0.0) == [job]


def test_jobs_startable_now_boundary():
    """``jobs_startable_now`` uses ``start <= now``, no epsilon.

    A start strictly below ``now`` never comes out of ``earliest_start``
    (it clamps to the profile origin) but is reachable via float drift in
    a hand-built result; ``<=`` treats it as "start now", never as a start
    in the past.  A start any amount *above* ``now`` must not launch —
    its nodes do not exist yet.
    """
    drifted = make_job(job_id=1, submit=0.0, nodes=1, runtime=HOUR, waiting=True)
    on_time = make_job(job_id=2, submit=0.0, nodes=1, runtime=HOUR, waiting=True)
    future = make_job(job_id=3, submit=0.0, nodes=1, runtime=HOUR, waiting=True)
    now = 100.0
    result = SearchResult(
        best_order=(drifted, on_time, future),
        best_starts={1: now - 1e-9, 2: now, 3: now + 1e-9},
        best_score=None,
        nodes_visited=3,
        leaves_evaluated=1,
        iterations_started=1,
        limit_hit=False,
    )
    assert result.jobs_startable_now(now) == [drifted, on_time]


def test_iteration0_equals_heuristic_schedule():
    jobs = [
        make_job(job_id=i, submit=0.0, nodes=2, runtime=HOUR, waiting=True)
        for i in range(1, 4)
    ]
    problem = _problem(jobs, capacity=4)
    # Limit of exactly n: only the heuristic path is explored.
    result = DiscrepancySearch("dds", node_limit=len(jobs)).search(problem)
    reference = build_schedule(jobs, problem.profile, 0.0)
    assert result.best_order == tuple(jobs)
    for job, start in reference:
        assert result.best_starts[job.job_id] == start


@pytest.mark.parametrize("algorithm", ["dds", "lds"])
def test_exhaustive_search_finds_brute_force_optimum(algorithm):
    # A mix that rewards reordering: a wide job blocks, short ones backfill.
    jobs = [
        make_job(job_id=1, submit=0.0, nodes=4, runtime=4 * HOUR, waiting=True),
        make_job(job_id=2, submit=0.0, nodes=1, runtime=HOUR, waiting=True),
        make_job(job_id=3, submit=0.0, nodes=2, runtime=2 * HOUR, waiting=True),
        make_job(job_id=4, submit=0.0, nodes=1, runtime=HOUR / 2, waiting=True),
    ]
    profile = AvailabilityProfile.from_segments(4, [(0.0, 2), (HOUR, 4)])
    problem = _problem(jobs, capacity=4, omega=0.0, profile=profile)
    result = DiscrepancySearch(algorithm, node_limit=None).search(problem)
    best = _brute_force_best(jobs, 4, 0.0, 0.0, profile=profile.copy())
    # An exhaustive run must evaluate all n! leaves and find the optimum.
    assert result.leaves_evaluated == 24
    assert (
        result.best_score.total_excessive_wait,
        result.best_score.total_slowdown,
    ) == pytest.approx(best)


@pytest.mark.parametrize("algorithm", ["dds", "lds"])
def test_node_limit_bounds_visits(algorithm):
    jobs = [
        make_job(job_id=i, submit=float(i), nodes=1, runtime=HOUR, waiting=True)
        for i in range(8)
    ]
    limit = 40
    result = DiscrepancySearch(algorithm, node_limit=limit).search(
        _problem(jobs, capacity=2)
    )
    assert result.nodes_visited <= limit
    assert result.limit_hit
    assert result.best_score is not None  # anytime: a schedule always exists


def test_first_leaf_completes_even_when_limit_below_queue_length():
    jobs = [
        make_job(job_id=i, submit=0.0, nodes=1, runtime=HOUR, waiting=True)
        for i in range(6)
    ]
    result = DiscrepancySearch("dds", node_limit=2).search(_problem(jobs, capacity=2))
    # The heuristic path (6 placements) must be completed regardless.
    assert result.leaves_evaluated >= 1
    assert len(result.best_starts) == 6


def test_more_budget_never_worse():
    jobs = [
        make_job(job_id=1, submit=0.0, nodes=3, runtime=5 * HOUR, waiting=True),
        make_job(job_id=2, submit=0.0, nodes=2, runtime=HOUR, waiting=True),
        make_job(job_id=3, submit=0.0, nodes=1, runtime=HOUR / 4, waiting=True),
        make_job(job_id=4, submit=0.0, nodes=4, runtime=2 * HOUR, waiting=True),
        make_job(job_id=5, submit=0.0, nodes=1, runtime=3 * HOUR, waiting=True),
    ]
    profile = AvailabilityProfile.from_segments(4, [(0.0, 3), (2 * HOUR, 4)])
    scores = []
    for limit in (5, 20, 80, None):
        problem = _problem(jobs, capacity=4, profile=profile.copy())
        result = DiscrepancySearch("dds", node_limit=limit).search(problem)
        scores.append(
            (result.best_score.total_excessive_wait, result.best_score.total_slowdown)
        )
    assert scores == sorted(scores, reverse=True) or all(
        scores[i] >= scores[i + 1] for i in range(len(scores) - 1)
    )


def test_search_does_not_mutate_caller_profile():
    jobs = [make_job(job_id=1, nodes=2, runtime=HOUR, waiting=True)]
    profile = AvailabilityProfile(4, origin=0.0)
    before = profile.segments()
    DiscrepancySearch("dds", node_limit=10).search(
        _problem(jobs, profile=profile)
    )
    assert profile.segments() == before


def test_list_scheduling_lets_later_jobs_fill_holes():
    # Considered order is (wide, short), but the short job starts first.
    wide = make_job(job_id=1, submit=0.0, nodes=4, runtime=HOUR, waiting=True)
    short = make_job(job_id=2, submit=0.0, nodes=1, runtime=HOUR / 2, waiting=True)
    profile = AvailabilityProfile.from_segments(4, [(0.0, 1), (HOUR, 4)])
    problem = _problem([wide, short], capacity=4, profile=profile)
    result = DiscrepancySearch("dds", node_limit=2).search(problem)
    assert result.best_starts[1] == HOUR  # wide waits for the machine
    assert result.best_starts[2] == 0.0  # short slots into the hole now


def test_objective_prefers_zero_excess_over_slowdown():
    # With a huge omega nothing is excessive, so the search optimizes
    # slowdown only; with omega=0 the first level dominates.
    jobs = [
        make_job(job_id=1, submit=0.0, nodes=2, runtime=8 * HOUR, waiting=True),
        make_job(job_id=2, submit=0.0, nodes=2, runtime=HOUR / 4, waiting=True),
    ]
    profile = AvailabilityProfile.from_segments(2, [(0.0, 0), (HOUR, 2)])

    loose = _problem(jobs, capacity=2, omega=100 * HOUR, profile=profile.copy())
    result = DiscrepancySearch("dds", node_limit=None).search(loose)
    # Slowdown-optimal: short job first.
    assert result.best_starts[2] <= result.best_starts[1]


def test_invalid_algorithm_and_limit():
    with pytest.raises(ValueError, match="unknown algorithm"):
        DiscrepancySearch("bfs")
    with pytest.raises(ValueError, match="node_limit"):
        DiscrepancySearch("dds", node_limit=0)


def test_pruning_preserves_optimum_when_exhaustive():
    jobs = [
        make_job(job_id=i, submit=0.0, nodes=(i % 3) + 1, runtime=HOUR * (i + 1), waiting=True)
        for i in range(5)
    ]
    problem = _problem(jobs, capacity=4)
    plain = DiscrepancySearch("dds", node_limit=None, prune=False).search(problem)
    pruned = DiscrepancySearch("dds", node_limit=None, prune=True).search(
        _problem(jobs, capacity=4)
    )
    assert pruned.best_score == plain.best_score
    assert pruned.nodes_visited <= plain.nodes_visited


def test_search_agrees_with_schedule_builder_on_every_leaf():
    # With an exhaustive search, the recorded best starts must equal what
    # the reference builder computes for the winning order.
    jobs = [
        make_job(job_id=i, submit=0.0, nodes=i % 2 + 1, runtime=HOUR * (1 + i % 3), waiting=True)
        for i in range(4)
    ]
    profile = AvailabilityProfile.from_segments(3, [(0.0, 1), (2 * HOUR, 3)])
    problem = _problem(jobs, capacity=3, profile=profile)
    result = DiscrepancySearch("lds", node_limit=None).search(problem)
    rebuilt = build_schedule(result.best_order, profile, 0.0)
    for job, start in rebuilt:
        assert result.best_starts[job.job_id] == pytest.approx(start)


def _trie_nodes(paths):
    """Distinct non-empty prefixes across paths = DFS node visits."""
    prefixes = set()
    for path in paths:
        ids = tuple(j.job_id for j in path)
        for k in range(1, len(ids) + 1):
            prefixes.add(ids[:k])
    return len(prefixes)


@pytest.mark.parametrize("algorithm", ["dds", "lds"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_exhaustive_node_accounting_matches_trie_reference(algorithm, n):
    """Node visits equal the sum over iterations of distinct prefixes.

    Each iteration is one DFS that shares prefixes internally but not
    across iterations, so the exact visit count is the per-iteration trie
    size summed — computed here from the pure permutation generators.
    """
    from repro.core.search_tree import (
        dds_iteration_paths,
        lds_iteration_paths,
        max_discrepancies,
    )

    jobs = [
        make_job(job_id=i, submit=float(i), nodes=1, runtime=HOUR, waiting=True)
        for i in range(n)
    ]
    problem = _problem(jobs, capacity=4)
    result = DiscrepancySearch(algorithm, node_limit=None).search(problem)

    gen = lds_iteration_paths if algorithm == "lds" else dds_iteration_paths
    expected = 0
    for iteration in range(0, max_discrepancies(n) + 1):
        paths = list(gen(tuple(jobs), iteration))
        expected += _trie_nodes(paths)
    assert result.nodes_visited == expected
