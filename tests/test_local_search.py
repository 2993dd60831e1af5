"""Tests for the local-search hybrid (hill climbing over orders)."""

import itertools

import pytest

from repro.core.criteria import paper_objective
from repro.core.local_search import evaluate_order, hill_climb
from repro.core.objective import FixedBound, ObjectiveConfig
from repro.core.profile import AvailabilityProfile
from repro.core.search import _ENGINES, DiscrepancySearch, SearchProblem
from repro.util.timeunits import HOUR

from tests.conftest import make_job
from tests.oracles import CONFORMANCE_ENGINES, build_problem, spec_score, with_criteria


def _problem(jobs, capacity=4, profile=None, omega=0.0):
    return SearchProblem(
        jobs=tuple(jobs),
        profile=profile or AvailabilityProfile(capacity, origin=0.0),
        now=0.0,
        omega=omega,
        objective=ObjectiveConfig(bound=FixedBound(omega)),
    )


def _contended_jobs():
    # A mix where order matters: the heuristic order (as given) is not
    # optimal, but an adjacent swap improves it.
    return [
        make_job(job_id=1, submit=0.0, nodes=4, runtime=6 * HOUR, waiting=True),
        make_job(job_id=2, submit=0.0, nodes=4, runtime=HOUR / 4, waiting=True),
        make_job(job_id=3, submit=0.0, nodes=4, runtime=HOUR, waiting=True),
    ]


def test_evaluate_order_matches_tree_search_leaf():
    jobs = _contended_jobs()
    problem = _problem(jobs)
    # Exhaustive search's best must equal the best over all evaluate_order.
    result = DiscrepancySearch("dds", node_limit=None).search(problem)
    best = min(
        (evaluate_order(problem, perm)[1] for perm in itertools.permutations(jobs)),
    )
    assert result.best_score == best


@pytest.mark.parametrize("form", ["two-level", "evaluator"])
@pytest.mark.parametrize("n", [0, 1, 10, 30, 63])
@pytest.mark.parametrize("engine", CONFORMANCE_ENGINES)
def test_evaluate_order_is_the_spec_on_every_engine(engine, n, form):
    """An order scored as iteration 0 of a search gets the starts and the
    score the reference builder and ``score_schedule`` give it, bit for
    bit — the heuristic order, its reverse (which no early discrepancy
    iteration visits) and a rotation, on both objective forms."""
    problem = build_problem("lxf", n_jobs=n)
    if form == "evaluator":
        problem = with_criteria(problem, paper_objective())
    jobs = problem.jobs
    for order in (jobs, jobs[::-1], jobs[n // 3 :] + jobs[: n // 3]):
        assert evaluate_order(problem, order, engine=_ENGINES[engine]) == spec_score(
            problem, order
        )


def test_hill_climb_improves_bad_start():
    jobs = _contended_jobs()  # given order: long job first = bad slowdown
    problem = _problem(jobs)
    start_score = evaluate_order(problem, jobs)[1]
    climb = hill_climb(problem, jobs)
    assert climb.improved
    assert climb.best_score < start_score
    assert climb.local_optimum


def test_hill_climb_finds_optimum_on_three_jobs():
    jobs = _contended_jobs()
    problem = _problem(jobs)
    climb = hill_climb(problem, jobs)
    brute = min(
        evaluate_order(problem, perm)[1] for perm in itertools.permutations(jobs)
    )
    # With 3 equal-width jobs, adjacent swaps reach any permutation.
    assert climb.best_score == brute


def test_hill_climb_respects_budget():
    jobs = [
        make_job(job_id=i, submit=0.0, nodes=4, runtime=HOUR * (10 - i), waiting=True)
        for i in range(8)
    ]
    problem = _problem(jobs)
    budget = 8 * 3  # the initial evaluation plus two neighbours
    climb = hill_climb(problem, jobs, node_budget=budget)
    assert climb.nodes_visited <= budget


def test_hill_climb_at_local_optimum_is_noop():
    # Shortest-first is optimal for equal-width jobs with omega = 0.
    jobs = sorted(_contended_jobs(), key=lambda j: j.runtime)
    problem = _problem(jobs)
    climb = hill_climb(problem, jobs)
    assert not climb.improved
    assert tuple(climb.best_order) == tuple(jobs)


def test_hill_climb_empty_order():
    problem = _problem([])
    climb = hill_climb(problem, [])
    assert climb.best_order == ()
    assert climb.nodes_visited == 0


def test_search_with_local_search_never_worse():
    jobs = [
        make_job(
            job_id=i,
            submit=float(i * 60),
            nodes=(i % 4) + 1,
            runtime=HOUR * (1 + (i * 7) % 5),
            waiting=True,
        )
        for i in range(7)
    ]
    profile = AvailabilityProfile.from_segments(4, [(0.0, 2), (2 * HOUR, 4)])
    plain = DiscrepancySearch("dds", node_limit=60).search(
        _problem(jobs, profile=profile.copy())
    )
    hybrid = DiscrepancySearch(
        "dds", node_limit=60, local_search_fraction=0.4
    ).search(_problem(jobs, profile=profile.copy()))
    assert hybrid.nodes_visited <= 60
    # The hybrid may find a different schedule but never a worse one than
    # its own tree phase; against the plain run it can win or tie or lose
    # slightly (less tree budget), so only check internal consistency.
    assert hybrid.best_score is not None


def test_local_search_fraction_validation():
    with pytest.raises(ValueError):
        DiscrepancySearch("dds", local_search_fraction=1.0)
    with pytest.raises(ValueError):
        DiscrepancySearch("dds", local_search_fraction=-0.1)


def test_policy_with_local_search_completes():
    from repro.core.scheduler import SearchSchedulingPolicy
    from repro.experiments.runner import simulate
    from repro.workloads.synthetic import generate_month

    workload = generate_month("2003-06", seed=8, scale=0.04)
    policy = SearchSchedulingPolicy(
        algorithm="dds", heuristic="lxf", node_limit=80, local_search_fraction=0.3
    )
    run = simulate(workload, policy)
    assert run.metrics.n_jobs == len(workload.jobs_in_window())
