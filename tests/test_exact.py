"""The exact solver's own certificate: brute-force cross-checks, tie
behaviour at ``TIME_EPS`` boundaries and guard rails.

The solver (:mod:`repro.core.exact`) is the repo's optimality oracle —
anything wrong here silently corrupts every gap-to-optimal number — so
its branch-and-bound backend is itself validated against the dumbest
possible implementation (full enumeration, no pruning) and against
exhaustive discrepancy search.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.criteria import MaxWait, TotalBoundedSlowdown, paper_objective
from repro.core.exact import MAX_EXACT_JOBS, solve_exact
from repro.core.search import DiscrepancySearch
from repro.util.timeunits import HOUR, TIME_EPS, time_eq
from tests.oracles import (
    NOW,
    InstanceSpec,
    build_problem,
    instance_specs,
    spec_score,
    with_criteria,
)

FUZZ = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


# ----------------------------------------------------------------------
# Brute-force cross-check (the acceptance criterion)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("heuristic", ["lxf", "fcfs"])
@pytest.mark.parametrize("n_jobs", [2, 4, 6])
def test_bnb_matches_brute_force(heuristic, n_jobs):
    """Branch-and-bound returns exactly what full enumeration returns —
    score, order and starts (both enumerate in the same DFS order, so
    even keep-first tie-breaking must coincide)."""
    problem = build_problem(heuristic, n_jobs=n_jobs)
    bnb = solve_exact(problem, backend="bnb")
    brute = solve_exact(problem, backend="brute")
    assert bnb.best_score == brute.best_score
    assert bnb.best_order == brute.best_order
    assert bnb.best_starts == brute.best_starts
    assert bnb.leaves_evaluated <= brute.leaves_evaluated
    assert brute.nodes_visited >= bnb.nodes_visited


@given(spec=instance_specs(max_jobs=5))
@FUZZ
def test_bnb_matches_brute_force_fuzzed(spec: InstanceSpec):
    problem = spec.to_problem()
    bnb = solve_exact(problem, backend="bnb")
    brute = solve_exact(problem, backend="brute")
    assert bnb.best_score == brute.best_score
    assert bnb.best_order == brute.best_order
    assert bnb.best_starts == brute.best_starts


@pytest.mark.parametrize("algorithm", ["dds", "lds"])
def test_exhaustive_search_attains_exact_optimum(algorithm):
    """An unbudgeted discrepancy search minimises over the same leaf set
    the solver enumerates, so the scores are equal as floats (the orders
    may differ: the engines visit leaves in discrepancy order, so a tie
    can keep a different permutation)."""
    problem = build_problem("lxf", n_jobs=6)
    exact = solve_exact(problem)
    search = DiscrepancySearch(algorithm, node_limit=None, engine="fast").search(
        problem
    )
    assert search.best_score == exact.best_score
    starts, score = spec_score(problem, search.best_order)
    assert score == search.best_score


def test_budgeted_search_never_beats_oracle():
    problem = build_problem("lxf", n_jobs=6)
    opt = solve_exact(problem).best_score
    for limit in (1, 7, 50, 500):
        result = DiscrepancySearch("dds", node_limit=limit, engine="fast").search(
            problem
        )
        assert not (result.best_score < opt)


def test_exact_best_is_reproducible_through_evaluate_order():
    """The oracle's certificate (order, starts, score) replays through
    the leaf model ``evaluate_order`` is held to (``oracles.spec_score``)
    bit-for-bit — the same arithmetic contract the engines rely on."""
    problem = build_problem("fcfs", n_jobs=5)
    exact = solve_exact(problem)
    starts, score = spec_score(problem, exact.best_order)
    assert score == exact.best_score
    assert starts == exact.best_starts


# ----------------------------------------------------------------------
# Degenerate sizes and guard rails
# ----------------------------------------------------------------------
def test_zero_jobs():
    result = solve_exact(build_problem("lxf", n_jobs=0))
    assert result.best_order == ()
    assert result.best_starts == {}
    assert result.nodes_visited == 0
    assert result.proven_optimal


def test_single_job_matches_evaluate_order():
    problem = build_problem("lxf", n_jobs=1)
    result = solve_exact(problem)
    starts, score = spec_score(problem, problem.jobs)
    assert result.best_score == score
    assert result.best_starts == starts
    assert result.leaves_evaluated == 1


def test_refuses_oversized_instance():
    problem = build_problem("lxf", n_jobs=7)
    with pytest.raises(ValueError, match="max_jobs=6"):
        solve_exact(problem, max_jobs=6)
    # ... but an explicit, in-range max_jobs admits it.
    assert solve_exact(problem, max_jobs=7).proven_optimal


def test_max_jobs_bounds():
    problem = build_problem("lxf", n_jobs=2)
    with pytest.raises(ValueError, match="max_jobs"):
        solve_exact(problem, max_jobs=0)
    with pytest.raises(ValueError, match="max_jobs"):
        solve_exact(problem, max_jobs=MAX_EXACT_JOBS + 1)


def test_unknown_backend_rejected():
    # "cpsat" was an optional ortools backend until PR 21; it is unknown now.
    for backend in ("simplex", "cpsat"):
        with pytest.raises(ValueError, match="unknown backend"):
            solve_exact(build_problem("lxf", n_jobs=2), backend=backend)


# ----------------------------------------------------------------------
# General criteria objectives
# ----------------------------------------------------------------------
def test_criteria_evaluator_objective_supported():
    """The oracle scores through ``SearchProblem.evaluator`` exactly like
    the engines: paper criteria give a MultiScore mirroring the fast-path
    levels, and exhaustive search still attains the exact optimum."""
    base = build_problem("lxf", n_jobs=5)
    paper = solve_exact(base)
    multi = solve_exact(with_criteria(base, paper_objective()))
    assert multi.best_score.levels[0] == paper.best_score.total_excessive_wait
    assert multi.best_score.levels[1] == paper.best_score.total_slowdown


def test_criteria_evaluator_nonpaper_objective():
    problem = with_criteria(
        build_problem("fcfs", n_jobs=4), (MaxWait(), TotalBoundedSlowdown())
    )
    exact = solve_exact(problem)
    brute = solve_exact(problem, backend="brute")
    assert exact.best_score == brute.best_score
    search = DiscrepancySearch("lds", node_limit=None, engine="fast").search(problem)
    assert search.best_score == exact.best_score


# ----------------------------------------------------------------------
# TIME_EPS boundary ties (the satellite fix)
# ----------------------------------------------------------------------
# The oracle and the leaf model (``spec_score``: the reference profile,
# where ``evaluate_order`` runs an engine) must agree on placements when a
# profile breakpoint sits a sub-epsilon (or barely-super-epsilon) offset
# from a job's natural start: a disagreement here would surface as a
# spurious nonzero "gap to optimal" that no budget could ever close.
def _eps_spec(offset: float) -> InstanceSpec:
    """Two jobs racing for a machine that recovers at ``NOW + 1h + offset``:
    one fits in the free node now, the other needs the recovery point."""
    return InstanceSpec(
        capacity=2,
        jobs=((0.0, 1, HOUR), (0.0, 2, HOUR)),
        segments=((NOW, 1), (NOW + HOUR + offset, 2)),
        omega=900.0,
        heuristic="fcfs",
    )


@pytest.mark.parametrize("offset", [-TIME_EPS / 2, 0.0, TIME_EPS / 2, 2 * TIME_EPS])
def test_exact_agrees_with_evaluate_order_at_eps_boundaries(offset):
    """At every offset around the epsilon boundary, the oracle's optimum
    equals the true minimum over all permutations *as placed and scored
    by the spec* — the same floats, not merely time_eq-close."""
    problem = _eps_spec(offset).to_problem()
    exact = solve_exact(problem)
    scores = []
    for perm in itertools.permutations(problem.jobs):
        starts, score = spec_score(problem, perm)
        scores.append(score)
        if perm == exact.best_order:
            assert starts == exact.best_starts
    assert min(scores) == exact.best_score


@pytest.mark.parametrize("offset", [-TIME_EPS / 2, TIME_EPS / 2])
def test_sub_eps_boundary_is_a_genuine_tie(offset):
    """A recovery point within TIME_EPS of the natural start is the same
    instant under the repo's time model: the wide job's planned start is
    time_eq to the nominal boundary, and the exhaustive search reports a
    bit-identical (zero-gap) score against the oracle."""
    problem = _eps_spec(offset).to_problem()
    exact = solve_exact(problem)
    wide_start = next(
        exact.best_starts[j.job_id] for j in problem.jobs if j.nodes == 2
    )
    assert time_eq(wide_start, NOW + HOUR)
    search = DiscrepancySearch("dds", node_limit=None, engine="fast").search(problem)
    assert search.best_score == exact.best_score  # no spurious gap

