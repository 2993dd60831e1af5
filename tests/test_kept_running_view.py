"""The engine's kept running view (``Simulation._running_view``).

The engine keeps the running set in ``(release_time, job_id)`` order
between decisions and hands that out instead of rebuilding and re-sorting
it.  Every test here compares what a policy was handed against the view
``sorted(...)`` from scratch — exactly, floats included — across start/
finish interleavings, the ``now + 1.0`` clamp window, a runtime source
whose belief moves with ``now``, a second ``run()`` of one object and a
tenant restored from a snapshot.  The kept order
is derived state: it must never reach a pickle.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backfill import fcfs_backfill
from repro.core.scheduler import SearchSchedulingPolicy
from repro.predict.predictors import RecentAveragePredictor
from repro.predict.source import PredictedRuntimeSource
from repro.service.api import DecisionRequest, JobSpec
from repro.service.recovery import restore_tenant, snapshot_tenant
from repro.service.tenant import TenantEngine
from repro.simulator.engine import Simulation
from repro.simulator.job import Job
from repro.simulator.policy import RunningJob, SchedulingPolicy
from repro.util.sanitize import sanitized
from repro.util.timeunits import time_eq
from repro.workloads.synthetic import generate_month
from tests.conftest import small_cluster


def view_from_scratch(sim: Simulation, now: float) -> tuple[RunningJob, ...]:
    """The specification, written out independently of the engine."""
    source = sim.policy.runtime_source
    views = []
    for job in sim.cluster.running_jobs:
        release = job.end_time if source.is_actual else source.believed_release(job, now)
        views.append(RunningJob(job=job, release_time=max(release, now + 1.0)))
    return tuple(sorted(views, key=lambda r: (r.release_time, r.job.job_id)))


class _ViewSpy(SchedulingPolicy):
    """Forwards to ``inner`` after checking the view it was handed."""

    name = "view-spy"

    def __init__(self, inner: SchedulingPolicy) -> None:
        self.inner = inner
        self.runtime_source = inner.runtime_source
        self.sim: Simulation | None = None
        self.checked = 0
        self.from_kept = 0

    def decide(self, now, waiting, running, cluster):
        assert self.sim is not None
        assert running == view_from_scratch(self.sim, now)
        self.checked += 1
        kept = self.sim._kept
        self.from_kept += kept is not None and running is kept.as_tuple()
        return self.inner.decide(now, waiting, running, cluster)

    def on_start(self, job, now):
        self.inner.on_start(job, now)

    def on_finish(self, job, now):
        self.inner.on_finish(job, now)

    def reset(self):
        self.inner.reset()


def _spied(jobs, inner, nodes):
    spy = _ViewSpy(inner)
    spy.sim = Simulation(jobs, spy, small_cluster(nodes))
    return spy


def _times(jobs):
    return sorted((j.job_id, j.start_time, j.end_time) for j in jobs)


# Half-second grid: equal end times and decisions inside the one-second
# clamp window of a running job's end are common, not lucky.
HALVES = st.integers(min_value=0, max_value=40).map(lambda k: k / 2)
JOB_ROWS = st.lists(
    st.tuples(
        HALVES,
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=20).map(lambda k: k / 2),
        st.integers(min_value=0, max_value=6).map(lambda k: k / 2),  # R - T
    ),
    min_size=1,
    max_size=14,
)


def _jobs(rows):
    return [
        Job(job_id=i, submit_time=submit, nodes=nodes, runtime=runtime,
            requested_runtime=runtime + over, user=f"u{i % 2}")
        for i, (submit, nodes, runtime, over) in enumerate(rows, start=1)
    ]


@settings(max_examples=200, deadline=None)
@given(rows=JOB_ROWS, source=st.sampled_from(["actual", "requested", "predicted"]))
def test_kept_view_equals_the_view_sorted_from_scratch(rows, source):
    if source == "predicted":
        source = PredictedRuntimeSource(RecentAveragePredictor(), floor=0.25)
    spy = _spied(_jobs(rows), fcfs_backfill(runtime_source=source), nodes=4)
    first = spy.sim.run()
    assert spy.checked == first.decision_count
    if isinstance(source, PredictedRuntimeSource):
        # Its belief moves with ``now``: always rebuilt, never kept.
        assert spy.from_kept == 0 and spy.sim._kept is None
    again = spy.sim.run()  # the same object a second time
    assert spy.checked == 2 * first.decision_count
    assert _times(again.jobs) == _times(first.jobs)


def test_equal_ends_and_the_clamp_window_by_hand():
    """Jobs 1 and 2 end together at t=10; job 3 arrives at t=9.5, inside
    their clamp window (rebuilt view, both clamped to 10.5, id order), and
    job 4 at t=12 with the kept order back in use."""
    jobs = [
        Job(job_id=2, submit_time=0.0, nodes=1, runtime=10.0),
        Job(job_id=1, submit_time=4.0, nodes=1, runtime=6.0),
        Job(job_id=3, submit_time=9.5, nodes=1, runtime=30.0),
        Job(job_id=4, submit_time=12.0, nodes=1, runtime=5.0),
    ]
    seen = {}

    class _Recording(_ViewSpy):
        def decide(self, now, waiting, running, cluster):
            seen[now] = [(r.job.job_id, r.release_time) for r in running]
            return super().decide(now, waiting, running, cluster)

    spy = _Recording(fcfs_backfill())
    spy.sim = Simulation(jobs, spy, small_cluster(4))
    spy.sim.run()
    assert seen[4.0] == [(2, 10.0)]
    assert seen[9.5] == [(1, 10.5), (2, 10.5)]
    assert seen[10.0] == [(3, 39.5)]
    assert seen[12.0] == [(3, 39.5)]
    assert spy.from_kept >= 3


def test_search_policy_month_sanitized_checks_every_decision():
    """Under the sanitizer the engine itself asserts kept == rebuilt at
    every decision; the run must stay clean and bit-identical."""
    workload = generate_month("2003-07", seed=2005, scale=0.05)

    def run():
        sim = Simulation(
            workload.fresh_jobs(), SearchSchedulingPolicy(node_limit=100),
            workload.cluster, window=workload.window,
        )
        return sim, sim.run()

    sim, plain = run()
    assert sim._kept is not None
    with sanitized():
        _, checked = run()
    assert _times(checked.jobs) == _times(plain.jobs)
    assert checked.extra == plain.extra


def test_a_cluster_changed_behind_the_engines_back_is_noticed():
    jobs = [Job(job_id=i, submit_time=float(i), nodes=1, runtime=100.0) for i in (1, 2)]
    sim = Simulation(jobs, fcfs_backfill(), small_cluster(4))
    state = sim._fresh_state()
    sim.consume_batch(state, state.events.pop_simultaneous())
    assert sim._kept is not None and len(sim._kept.keys) == 1
    stray = Job(job_id=9, submit_time=0.0, nodes=1, runtime=50.0)
    stray.mark_waiting()
    sim.cluster.start(stray, 1.5)
    assert sim._running_view(2.0) == view_from_scratch(sim, 2.0)
    assert len(sim._running_view(2.0)) == 2


# ----------------------------------------------------------------------
# Derived state: never pickled, rebuilt lazily after a restore
# ----------------------------------------------------------------------
def _month():
    return generate_month("2003-07", seed=2005, scale=0.04)


def _policy():
    return SearchSchedulingPolicy(node_limit=150)


def _requests(workload):
    instants = sorted({j.submit_time for j in workload.jobs})
    return [
        DecisionRequest(
            tenant="t", now=t,
            arrivals=tuple(
                JobSpec.from_job(j) for j in workload.jobs if time_eq(j.submit_time, t)
            ),
        )
        for t in instants
    ]


def _tenant(workload):
    return TenantEngine(
        "t", _policy(), cluster_config=workload.cluster, window=workload.window
    )


@pytest.mark.fault_sensitive  # an injected service.snapshot tear breaks restore
def test_restored_tenant_decides_like_the_uninterrupted_one(tmp_path):
    workload = _month()
    requests = _requests(workload)
    split = len(requests) // 2
    original = _tenant(workload)
    for request in requests[:split]:
        original.handle(request)
    assert original.sim._kept is not None
    assert original.running_count == len(original.sim._kept.keys) > 0
    snapshot_tenant(original, tmp_path)

    restored = restore_tenant(tmp_path, "t")
    assert "_kept" not in vars(restored.sim)
    tail_a, tail_b = [], []
    with sanitized():
        for request in requests[split:]:
            tail_a.extend(original.handle(request))
            tail_b.extend(restored.handle(request))
    assert tail_a == tail_b and any(d.started for d in tail_b)
    assert restored.sim._kept is not None  # re-seeded at its next decision
    assert _times(restored.jobs.values()) == _times(original.jobs.values())


def test_snapshot_bytes_do_not_depend_on_the_kept_order():
    workload = _month()
    engine = _tenant(workload)
    for request in _requests(workload)[:40]:
        engine.handle(request)
    assert engine.sim._kept is not None and engine.sim._kept.keys
    with_kept = pickle.dumps(engine.snapshot_record(), pickle.HIGHEST_PROTOCOL)
    engine.sim._kept = None
    assert pickle.dumps(engine.snapshot_record(), pickle.HIGHEST_PROTOCOL) == with_kept
    assert b"_kept" not in with_kept and b"_ReleaseOrder" not in with_kept
