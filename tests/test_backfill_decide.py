"""A backfill decision asks a blocked job only whether it starts now.

``BackfillPolicy.decide`` answers a job with
:meth:`AvailabilityProfile.fits_now` and runs a full earliest-fit scan only
for a job it reserves.  These tests hold it to the loop that scanned every
waiting job: a test-local copy of that loop on Hypothesis-drawn decision
points, schedule digests of a month taken from that loop (for the three
backfill baselines and the three variants, which ask the same question),
and months run under the sanitizer, which re-derives every shortcut
answer with ``earliest_start``.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backfill import (
    PRIORITIES,
    BackfillPolicy,
    conservative_backfill,
    fcfs_backfill,
    lxf_backfill,
)
from repro.backfill.variants import (
    LookaheadPolicy,
    SelectiveBackfillPolicy,
    SlackBackfillPolicy,
)
from repro.core.profile import AvailabilityProfile
from repro.simulator.cluster import Cluster
from repro.simulator.engine import Simulation
from repro.simulator.job import Job
from repro.simulator.policy import RunningJob
from repro.util.sanitize import InvariantViolation, sanitized
from repro.util.timeunits import TIME_EPS
from repro.workloads.synthetic import generate_month

from tests.conftest import small_cluster


def _scan_every_job(policy, now, waiting, running, cluster):
    """``BackfillPolicy.decide`` as first written, on ``policy``'s config
    and stats: a full earliest-fit scan for every waiting job, in
    priority order."""
    stats = policy.stats
    stats["decisions"] += 1
    if not waiting:
        return []
    stats["max_queue_length"] = max(stats["max_queue_length"], len(waiting))
    ordered = sorted(
        waiting, key=lambda j: policy.priority(j, now, policy.runtime_of(j))
    )
    profile = AvailabilityProfile.from_running(cluster.capacity, now, running)
    started = []
    reservations_made = 0
    blocked_seen = False
    for job in ordered:
        runtime = policy.runtime_of(job)
        start = profile.earliest_start(job.nodes, runtime, now)
        if start <= now:
            profile.reserve(start, runtime, job.nodes)
            started.append(job)
            if blocked_seen:
                stats["backfilled_starts"] += 1
            else:
                stats["priority_starts"] += 1
        elif reservations_made < policy.reservations:
            profile.reserve(start, runtime, job.nodes)
            reservations_made += 1
            blocked_seen = True
        else:
            blocked_seen = True
    return started


# ----------------------------------------------------------------------
# One decision, drawn: the new loop against the old one
# ----------------------------------------------------------------------
CAPACITY = 8

#: Runtimes and remaining times that put breakpoints and window ends
#: within TIME_EPS of each other, beside ordinary values.
_TIGHT = [
    10.0,
    10.000000000000002,
    10.0 + TIME_EPS,
    10.0 - TIME_EPS,
    10.0 + TIME_EPS / 2,
    20.0,
    20.000000000000004,
]
tight_seconds = st.one_of(
    st.sampled_from(_TIGHT),
    st.floats(min_value=1.0, max_value=600.0, allow_nan=False),
)


@st.composite
def decision_points(draw):
    """``(now, running views, waiting jobs, cluster)`` at one decision."""
    now = draw(st.sampled_from([0.0, 3600.0, 86_399.5]))
    cluster = Cluster(small_cluster(CAPACITY))
    running = []
    shapes = st.tuples(st.integers(min_value=1, max_value=4), tight_seconds)
    for i, (nodes, remaining) in enumerate(draw(st.lists(shapes, max_size=4))):
        if nodes > cluster.free_nodes:
            continue
        job = Job(job_id=1000 + i, submit_time=0.0, nodes=nodes, runtime=remaining)
        job.mark_waiting()
        cluster.start(job, 0.0)
        running.append(RunningJob(job=job, release_time=now + remaining))
    running.sort(key=lambda r: (r.release_time, r.job.job_id))
    queued = st.tuples(
        st.integers(min_value=1, max_value=CAPACITY),
        tight_seconds,
        st.sampled_from([0.0, 1.0, 60.0, 3600.0]),
    )
    waiting = []
    for i, (nodes, runtime, age) in enumerate(
        draw(st.lists(queued, min_size=1, max_size=10))
    ):
        job = Job(
            job_id=i, submit_time=max(now - age, 0.0), nodes=nodes, runtime=runtime
        )
        job.mark_waiting()
        waiting.append(job)
    return now, running, waiting, cluster


def _outcome(decide, policy, point):
    """What one decision shows: the started ids in order and the stats,
    or the error it raised."""
    now, running, waiting, cluster = point
    policy.reset()
    try:
        started = decide(policy, now, list(waiting), running, cluster)
    except ValueError as exc:
        return ("raised", str(exc))
    return ([job.job_id for job in started], dict(policy.stats))


def _easy(priority, reservations):
    return lambda: BackfillPolicy(priority, reservations=reservations)


_CONFIGS = [
    pytest.param(_easy(priority, reservations), id=f"{key}-res{reservations}")
    for key, priority in sorted(PRIORITIES.items())
    for reservations in (0, 1, 2)
] + [pytest.param(conservative_backfill, id="conservative")]


@pytest.mark.parametrize("make", _CONFIGS)
@given(point=decision_points())
@settings(max_examples=120, deadline=None)
def test_decide_equals_the_loop_that_scanned_every_job(make, point):
    assert _outcome(BackfillPolicy.decide, make(), point) == _outcome(
        _scan_every_job, make(), point
    )


# ----------------------------------------------------------------------
# Whole months, pinned with the loop that scanned every job
# ----------------------------------------------------------------------
def _digest(workload, policy):
    """sha256 over every job's exact start and end, plus the decision count."""
    result = Simulation(
        workload.fresh_jobs(), policy, workload.cluster, window=workload.window
    ).run()
    lines = sorted(
        f"{j.job_id}:{j.start_time.hex()}:{j.end_time.hex()}" for j in result.jobs
    )
    lines.append(f"decisions:{result.decision_count}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


#: 2003-07 (seed 2005) at a quarter of full scale.
_MONTH_DIGESTS = {
    "fcfs_backfill": (
        fcfs_backfill,
        "ece8f8f5ca998a37725672ba286eb4ff2c04563701a7a6541da9a1827830e8a4",
    ),
    "lxf_backfill": (
        lxf_backfill,
        "7061e6e47c7b1acca0efdb40c2c875fe118a48c60e15d4e672a94451fdd5d7f7",
    ),
    "conservative_backfill": (
        conservative_backfill,
        "c31d37ca8033f8bce66c91b83b3f68271d768ccec4dd5be870b481f62b551bfa",
    ),
    "selective": (
        SelectiveBackfillPolicy,
        "d4711a08b856dae06d64da34597418a829f81cd0b644bdb8d3340a072f05e33c",
    ),
    "slack": (
        SlackBackfillPolicy,
        "eb492748769d7d152859072414c3298c6ce2cceaf56dfe7c475f4edbbc57f6e8",
    ),
    "lookahead": (
        LookaheadPolicy,
        "ad7be8aa88e4c93e59beef7ff5da9d9227601eab49afe53858308614af26ee58",
    ),
}


@pytest.fixture(scope="module")
def quarter_month():
    return generate_month("2003-07", seed=2005, scale=0.25)


@pytest.mark.parametrize("name", sorted(_MONTH_DIGESTS))
def test_month_schedule_is_pinned(name, quarter_month):
    make, digest = _MONTH_DIGESTS[name]
    assert _digest(quarter_month, make()) == digest


# ----------------------------------------------------------------------
# The sanitizer re-derives every shortcut answer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("make", [fcfs_backfill, lxf_backfill, conservative_backfill])
def test_month_under_the_sanitizer_is_clean_and_identical(make):
    workload = generate_month("2003-07", seed=2005, scale=0.05)
    with sanitized(False):
        plain = _digest(workload, make())
    with sanitized(True):
        checked = _digest(workload, make())
    assert checked == plain


def test_sanitizer_catches_a_wrong_fits_now(monkeypatch):
    """A ``fits_now`` that says yes to a job that cannot start now is
    caught before the job is started."""
    cluster = Cluster(small_cluster(4))
    busy = Job(job_id=0, submit_time=0.0, nodes=2, runtime=100.0)
    busy.mark_waiting()
    cluster.start(busy, 0.0)
    wide = Job(job_id=1, submit_time=0.0, nodes=4, runtime=100.0)
    wide.mark_waiting()
    running = [RunningJob(job=busy, release_time=100.0)]
    monkeypatch.setattr(AvailabilityProfile, "fits_now", lambda self, n, d: True)
    with sanitized(True):
        with pytest.raises(InvariantViolation, match="earliest start is 100.0"):
            fcfs_backfill().decide(0.0, [wide], running, cluster)
