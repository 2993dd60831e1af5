"""The search policy's no-fit shortcut (``SearchSchedulingPolicy.decide``).

When the smallest waiting job needs more nodes than are free at ``now``,
``decide`` answers ``[]`` without ordering the queue or calling the
kernel.  That is only sound if the search it skipped would have started
nothing, so everything here is differential: against the reference
engine on random decision points, and against a test-local policy that
searches every non-empty decision on whole replayed months.  There is no
switch in the source to turn the shortcut off.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.branching import order_jobs
from repro.core.criteria import FairshareDelay, TotalExcessiveWait
from repro.core.objective import DynamicBound, ObjectiveConfig
from repro.core.profile import AvailabilityProfile
from repro.core.scheduler import SearchSchedulingPolicy
from repro.core.search import DiscrepancySearch, SearchProblem
from repro.simulator.cluster import Cluster
from repro.simulator.engine import Simulation
from repro.simulator.policy import RunningJob
from repro.util.sanitize import InvariantViolation, sanitized
from repro.util.timeunits import HOUR, TIME_EPS
from repro.workloads.synthetic import generate_month
from tests.conftest import make_job, small_cluster

NOW = 1000.0

#: Release times relative to ``now``: already past (clamped to ``now``),
#: inside the simultaneity window that ``from_running`` folds into
#: ``free[0]``, just outside it, and ordinary futures.
RELEASE_OFFSETS = st.sampled_from(
    [-5.0, 0.0, TIME_EPS / 2, TIME_EPS, 2 * TIME_EPS, 1e-6, 1.0, 60.0, HOUR]
)


@st.composite
def nofit_points(draw):
    """``(capacity, running, waiting)`` with ``min(nodes) > free now``."""
    capacity = draw(st.integers(min_value=2, max_value=16))
    running, left = [], capacity
    for i in range(draw(st.integers(min_value=1, max_value=5))):
        if left == 0:
            break
        nodes = draw(st.integers(min_value=1, max_value=left))
        left -= nodes
        job = make_job(job_id=100 + i, nodes=nodes, runtime=2 * HOUR)
        running.append(RunningJob(job=job, release_time=NOW + draw(RELEASE_OFFSETS)))
    running = draw(st.permutations(running))
    free_now = AvailabilityProfile.from_running(capacity, NOW, running).free[0]
    assume(free_now < capacity)
    waiting = [
        make_job(
            job_id=i,
            submit=float(draw(st.integers(min_value=0, max_value=int(NOW)))),
            nodes=draw(st.integers(min_value=free_now + 1, max_value=capacity)),
            runtime=float(draw(st.integers(min_value=60, max_value=6 * 3600))),
            waiting=True,
        )
        for i in range(draw(st.integers(min_value=1, max_value=5)))
    ]
    return capacity, tuple(running), tuple(waiting)


@settings(max_examples=150, deadline=None)
@given(point=nofit_points(), algorithm=st.sampled_from(["dds", "lds"]))
def test_reference_search_starts_nothing_when_no_job_fits(point, algorithm):
    capacity, running, waiting = point
    problem = SearchProblem(
        jobs=tuple(order_jobs(waiting, "lxf", NOW)),
        profile=AvailabilityProfile.from_running(capacity, NOW, running),
        now=NOW,
        omega=DynamicBound().value(NOW, waiting),
        objective=ObjectiveConfig(bound=DynamicBound()),
    )
    searcher = DiscrepancySearch(algorithm=algorithm, node_limit=200, engine="reference")
    assert searcher.search(problem).jobs_startable_now(NOW) == []

    policy = SearchSchedulingPolicy(algorithm=algorithm, node_limit=200)
    cluster = Cluster(small_cluster(capacity))
    assert policy.decide(NOW, waiting, running, cluster) == []
    assert policy.stats["nofit_decisions"] == 1
    assert policy.stats["searched_decisions"] == 0
    assert policy.stats["total_nodes_visited"] == 0
    assert policy.stats["max_queue_length"] == len(waiting)


def test_overcommitted_running_still_raises_on_the_nofit_path():
    running = (
        RunningJob(job=make_job(job_id=1, nodes=3), release_time=NOW + 60.0),
        RunningJob(job=make_job(job_id=2, nodes=3), release_time=NOW + 90.0),
    )
    waiting = (make_job(job_id=3, nodes=4, waiting=True),)
    policy = SearchSchedulingPolicy(node_limit=50)
    with pytest.raises(ValueError, match="occupy 6 nodes > capacity 4"):
        policy.decide(NOW, waiting, running, Cluster(small_cluster(4)))


def test_a_release_within_eps_of_now_counts_as_free():
    """``from_running`` folds it into ``free[0]``, so the job that needs
    those nodes fits, is searched for and starts."""
    running = (
        RunningJob(job=make_job(job_id=1, nodes=3), release_time=NOW + TIME_EPS / 2),
        RunningJob(job=make_job(job_id=2, nodes=1), release_time=NOW + HOUR),
    )
    fits = make_job(job_id=3, nodes=3, waiting=True)
    policy = SearchSchedulingPolicy(node_limit=50)
    cluster = Cluster(small_cluster(4))
    assert policy.decide(NOW, (fits,), running, cluster) == [fits]
    assert policy.stats["nofit_decisions"] == 0
    too_wide = make_job(job_id=4, nodes=4, waiting=True)
    assert policy.decide(NOW, (too_wide,), running, cluster) == []
    assert policy.stats["nofit_decisions"] == 1


# ----------------------------------------------------------------------
# Whole months: statistics identity and bit-identical schedules
# ----------------------------------------------------------------------
class _AlwaysSearch(SearchSchedulingPolicy):
    """The reference: ``decide`` as it was before the shortcut."""

    def decide(self, now, waiting, running, cluster):
        self.stats["decisions"] += 1
        if not waiting:
            return []
        profile = AvailabilityProfile.from_running(cluster.capacity, now, running)
        result = self._search(now, waiting, running, profile)
        self.stats["searched_decisions"] += 1
        return result.jobs_startable_now(now)


def _replay(policy, workload):
    result = Simulation(
        workload.fresh_jobs(), policy, workload.cluster, window=workload.window
    ).run()
    schedule = sorted((j.job_id, j.start_time, j.end_time) for j in result.jobs)
    return result, schedule


def test_decision_counts_add_up_on_a_replayed_month():
    workload = generate_month("2003-07", seed=2005, scale=0.1)
    empty_queue = 0

    class _Counting(SearchSchedulingPolicy):
        def decide(self, now, waiting, running, cluster):
            nonlocal empty_queue
            empty_queue += not waiting
            return super().decide(now, waiting, running, cluster)

    result, _ = _replay(_Counting(node_limit=200), workload)
    stats = result.extra  # policy.stats rides into SimulationResult.extra
    assert stats["nofit_decisions"] > 0 and stats["searched_decisions"] > 0
    assert stats["decisions"] == result.decision_count
    assert stats["decisions"] == (
        empty_queue + stats["nofit_decisions"] + stats["searched_decisions"]
    )


@pytest.mark.parametrize("source", ["actual", "requested"])
def test_month_is_bit_identical_to_searching_every_decision(source):
    workload = generate_month("2004-01", seed=7, scale=0.08)
    kwargs = dict(node_limit=150, runtime_source=source)
    skipped, schedule = _replay(SearchSchedulingPolicy(**kwargs), workload)
    searched, expected = _replay(_AlwaysSearch(**kwargs), workload)
    assert schedule == expected  # exact floats
    assert skipped.extra["nofit_decisions"] > 0
    assert (
        skipped.extra["nofit_decisions"] + skipped.extra["searched_decisions"]
        == searched.extra["searched_decisions"]
    )


def test_fairshare_usage_decays_in_the_same_steps():
    """The usage tracker's decay is a float product of per-decision
    steps; a skipped decision must still take its step or the next
    search's overuse figures drift in the last bits."""
    workload = generate_month("2003-07", seed=2005, scale=0.08)
    users = ["ann", "bob", "cy"]
    for job in workload.jobs:
        job.user = users[job.job_id % 3]
    criteria = (FairshareDelay(horizon=HOUR), TotalExcessiveWait())

    def run(cls):
        policy = cls(node_limit=100, criteria=criteria, fairshare_half_life=HOUR)
        result, schedule = _replay(policy, workload)
        tracker = policy.usage_tracker
        return result, schedule, {u: tracker.usage_of(u) for u in users}

    skipped, schedule, usage = run(SearchSchedulingPolicy)
    _, expected, expected_usage = run(_AlwaysSearch)
    assert skipped.extra["nofit_decisions"] > 0
    assert schedule == expected
    assert usage == expected_usage  # exact floats


# ----------------------------------------------------------------------
# Sanitizer: a skipped decision is re-checked, statistics untouched
# ----------------------------------------------------------------------
def test_sanitizer_rechecks_a_skip_without_touching_stats():
    workload = generate_month("2003-07", seed=2005, scale=0.05)
    plain, schedule = _replay(SearchSchedulingPolicy(node_limit=100), workload)
    with sanitized():
        checked, checked_schedule = _replay(
            SearchSchedulingPolicy(node_limit=100), workload
        )
    assert plain.extra["nofit_decisions"] > 0
    assert checked.extra == plain.extra
    assert checked_schedule == schedule


def test_sanitizer_catches_a_skip_that_would_have_started_a_job():
    job = make_job(job_id=1, nodes=3, waiting=True)
    running = (RunningJob(job=make_job(job_id=2, nodes=2), release_time=NOW + 60.0),)
    policy = SearchSchedulingPolicy(node_limit=50)

    class _StartsIt:
        def jobs_startable_now(self, now):
            return [job]

    policy._search = lambda *args: _StartsIt()
    cluster = Cluster(small_cluster(4))
    with sanitized(False):
        assert policy.decide(NOW, (job,), running, cluster) == []
    with sanitized():
        with pytest.raises(InvariantViolation, match="would have started"):
            policy.decide(NOW, (job,), running, cluster)
