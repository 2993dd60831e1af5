"""What the policy marshals in one pass is what the per-job path derived.

``SearchSchedulingPolicy._search`` walks the queue once: a row per job
(heuristic key, job, submit, nodes, planning runtime, clamped
denominator), one sort, one transposition, and the resulting
``SearchProblem`` carries its own ``JobArrays``.  Before that the same
problem came out of ``order_jobs`` over a ``job_id``-keyed runtime dict,
``Job.current_wait`` per job and ``JobArrays.build`` behind
``resolve_runtimes``.  Those definitions are still the specification;
this module holds the one-pass result to them with ``==`` on every float
— and checks that under ``REPRO_SANITIZE=1`` the policy makes the same
comparison itself at every decision, which is how the chaos jobs get it
on every replay they run.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.branching import order_jobs
from repro.core.deltascore import JobArrays
from repro.core.scheduler import SearchSchedulingPolicy
from repro.core.search import resolve_runtimes
from repro.predict.predictors import RuntimePredictor
from repro.predict.source import PredictedRuntimeSource
from repro.simulator.cluster import Cluster
from repro.simulator.engine import Simulation
from repro.util.sanitize import InvariantViolation, sanitized
from repro.workloads.synthetic import generate_month
from tests.conftest import make_job, small_cluster

CAPACITY = 16


class _Fraction(RuntimePredictor):
    """A prediction that is neither T nor R, and often below the
    source's one-minute floor."""

    def predict(self, job):
        return float(job.requested_runtime) * 0.37

    def observe(self, job):
        pass


SOURCES = {
    "actual": lambda: "actual",
    "requested": lambda: "requested",
    "predicted": lambda: PredictedRuntimeSource(_Fraction()),
}

# A handful of repeated values next to arbitrary fractions, so equal
# submit times, equal runtimes and fully equal keys all occur and the
# order falls through to ``job_id``.
_SUBMITS = st.one_of(
    st.sampled_from([0.0, 10.25, 999.5]),
    st.floats(min_value=0.0, max_value=5e5, allow_nan=False),
)
_RUNTIMES = st.one_of(
    st.sampled_from([0.5, 59.999, 60.0, 3600.0]),  # below, at and above the floor
    st.floats(min_value=0.001, max_value=2e5, allow_nan=False),
)


@st.composite
def queues(draw):
    jobs = []
    for job_id in draw(st.permutations(range(draw(st.integers(1, 9))))):
        runtime = draw(_RUNTIMES)
        jobs.append(
            make_job(
                job_id=job_id,
                submit=draw(_SUBMITS),
                nodes=draw(st.integers(1, CAPACITY)),
                runtime=runtime,
                requested=runtime * draw(st.sampled_from([1.0, 1.5, 7.25])),
                waiting=True,
            )
        )
    # ``now`` may precede a submission: hand-built decisions are allowed to.
    now = draw(st.one_of(_SUBMITS, st.floats(min_value=0.0, max_value=1e6)))
    return tuple(jobs), now


def _handed_to_search(policy, now, waiting):
    """The ``SearchProblem`` one ``decide`` hands to ``searcher.search``."""
    seen = []
    inner = policy.searcher

    class _Recorder:
        def search(self, problem):
            seen.append(problem)
            return inner.search(problem)

    policy.searcher = _Recorder()
    try:
        policy.decide(now, waiting, (), Cluster(small_cluster(CAPACITY)))
    finally:
        policy.searcher = inner
    (problem,) = seen  # an idle machine: some job fits, so it searched
    return problem


@settings(max_examples=200, deadline=None)
@given(
    heuristic=st.sampled_from(["fcfs", "lxf", "sjf"]),
    source=st.sampled_from(sorted(SOURCES)),
    queue=queues(),
)
def test_marshalled_problem_equals_the_per_job_derivation(heuristic, source, queue):
    waiting, now = queue
    policy = SearchSchedulingPolicy(
        heuristic=heuristic, runtime_source=SOURCES[source](), node_limit=40
    )
    problem = _handed_to_search(policy, now, waiting)

    runtimes = {job.job_id: policy.runtime_of(job) for job in waiting}
    assert problem.jobs == tuple(
        order_jobs(waiting, heuristic, now, runtime_of=lambda j: runtimes[j.job_id])
    )
    longest_wait = max(job.current_wait(now) for job in waiting)
    assert problem.omega == longest_wait  # simlint: skip=SIM003 - bit-equality is the claim
    floor = problem.objective.slowdown_floor
    assert problem.arrays == JobArrays.build(problem.jobs, runtimes, floor)
    # ... and the runtimes every other consumer resolves are those.
    assert resolve_runtimes(problem) == runtimes
    assert problem.arrays == JobArrays.build(
        problem.jobs, resolve_runtimes(problem), floor
    )
    assert problem.job_arrays() is problem.arrays
    # A problem made without arrays derives the same view on demand.
    hand_built = dataclasses.replace(problem, arrays=None, runtimes=runtimes)
    assert hand_built.job_arrays() == problem.arrays
    # The rows are plain lists: the C kernel accepts nothing else.
    assert all(
        type(getattr(problem.arrays, column)) is list
        for column in JobArrays.__slots__
    )


@settings(max_examples=60, deadline=None)
@given(
    heuristic=st.sampled_from(["fcfs", "lxf", "sjf"]),
    source=st.sampled_from(sorted(SOURCES)),
    queue=queues(),
)
def test_sanitizer_makes_the_same_comparison_and_passes(heuristic, source, queue):
    waiting, now = queue
    policy = SearchSchedulingPolicy(
        heuristic=heuristic, runtime_source=SOURCES[source](), node_limit=40
    )
    with sanitized(False):
        plain = policy.decide(now, waiting, (), Cluster(small_cluster(CAPACITY)))
    with sanitized():
        checked = policy.decide(now, waiting, (), Cluster(small_cluster(CAPACITY)))
    assert checked == plain


def _decide_with_a_second_opinion(policy, opinion):
    """One sanitized decision in which the per-job path the sanitizer
    re-derives from (``runtime_of``) answers ``opinion(job)``."""
    waiting = (
        make_job(job_id=1, submit=5.0, nodes=2, runtime=700.0, waiting=True),
        make_job(job_id=2, submit=1.0, nodes=3, runtime=90.0, waiting=True),
    )
    policy.runtime_of = opinion
    with sanitized():
        return policy.decide(100.0, waiting, (), Cluster(small_cluster(CAPACITY)))


def test_sanitizer_catches_rows_that_differ_from_the_derivation():
    with pytest.raises(InvariantViolation, match="job arrays differ"):
        _decide_with_a_second_opinion(
            SearchSchedulingPolicy(heuristic="fcfs", node_limit=20),
            lambda job: job.runtime + 1.0,  # fcfs: same order, other columns
        )
    with pytest.raises(InvariantViolation, match="job order differs"):
        _decide_with_a_second_opinion(
            SearchSchedulingPolicy(heuristic="sjf", node_limit=20),
            lambda job: -job.runtime,  # sjf: the reverse order
        )


def test_sanitized_replay_checks_every_searched_decision():
    """The check rides every searched decision of a replay, so any
    sanitized run (the chaos jobs) is a differential run of the two
    derivations — and a sanitized schedule is the plain one."""
    workload = generate_month("2003-07", seed=2005, scale=0.05)

    def replay(policy):
        result = Simulation(
            workload.fresh_jobs(), policy, workload.cluster, window=workload.window
        ).run()
        return [(j.job_id, j.start_time, j.end_time) for j in result.jobs]

    calls = []

    class _Counting(SearchSchedulingPolicy):
        def _check_marshalling(self, problem, waiting):
            calls.append(len(waiting))
            super()._check_marshalling(problem, waiting)

    plain_policy = SearchSchedulingPolicy(node_limit=100, runtime_source="requested")
    with sanitized(False):
        plain = replay(plain_policy)
    assert calls == []
    checked_policy = _Counting(node_limit=100, runtime_source="requested")
    with sanitized():
        checked = replay(checked_policy)
    assert checked == plain
    stats = checked_policy.stats
    # A skipped (no-fit) decision searches too when sanitizing.
    assert len(calls) == stats["searched_decisions"] + stats["nofit_decisions"] > 0
