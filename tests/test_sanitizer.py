"""Debug-mode simulation sanitizer (REPRO_SANITIZE / util.sanitize).

Deliberately corrupted clusters, engines and profiles must be caught with
clear messages; an honest full search-policy run must be both clean and
byte-identical to an unsanitized run.
"""

from __future__ import annotations

import pytest

from repro.core.profile import (
    AvailabilityProfile,
    _occupied_node_seconds,
    _sanitize_delta,
)
from repro.core.scheduler import make_policy
from repro.simulator.cluster import Cluster, ClusterConfig, JobLimits
from repro.simulator.engine import Simulation
from repro.simulator.events import EventQueue, EventKind
from repro.simulator.job import Job, JobState
from repro.simulator.policy import SchedulingPolicy
from repro.util.sanitize import (
    InvariantViolation,
    sanitize_enabled,
    sanitized,
    set_sanitize,
)
from repro.workloads.synthetic import generate_month


def make_job(job_id=1, submit=0.0, nodes=4, runtime=100.0):
    return Job(job_id=job_id, submit_time=submit, nodes=nodes, runtime=runtime)


def small_cluster(nodes=16):
    return Cluster(
        ClusterConfig(nodes=nodes, limits=JobLimits(max_nodes=nodes, max_runtime=1e9))
    )


# ----------------------------------------------------------------------
# Enable/disable plumbing
# ----------------------------------------------------------------------
def test_disabled_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    set_sanitize(None)  # drop any cached env reading (chaos CI sets the var)
    try:
        assert sanitize_enabled() is False
    finally:
        set_sanitize(None)


def test_context_manager_scopes_override(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    set_sanitize(None)
    try:
        with sanitized(True):
            assert sanitize_enabled() is True
            with sanitized(False):
                assert sanitize_enabled() is False
            assert sanitize_enabled() is True
        assert sanitize_enabled() is False
    finally:
        set_sanitize(None)


def test_env_var_enables(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    set_sanitize(None)  # drop the cached env reading
    try:
        assert sanitize_enabled() is True
    finally:
        monkeypatch.delenv("REPRO_SANITIZE")
        set_sanitize(None)


# ----------------------------------------------------------------------
# Cluster corruption
# ----------------------------------------------------------------------
def test_corrupted_free_nodes_caught_on_start():
    cluster = small_cluster()
    job = make_job()
    job.state = JobState.WAITING
    cluster.free_nodes = 99  # corruption: more free nodes than exist
    with sanitized():
        with pytest.raises(InvariantViolation, match="outside \\[0, 16\\]"):
            cluster.start(job, 0.0)


def test_phantom_running_job_caught_on_finish():
    cluster = small_cluster()
    a, b = make_job(1), make_job(2, nodes=8)
    a.state = JobState.WAITING
    b.state = JobState.WAITING
    cluster.start(a, 0.0)
    cluster.start(b, 0.0)
    cluster.free_nodes += 5  # corruption: nodes leaked back early
    with sanitized():
        with pytest.raises(InvariantViolation, match="node accounting broken"):
            cluster.finish(a, 100.0)


def test_double_release_still_caught():
    """Double-finish is rejected even without the sanitizer; with it, the
    message stays the hard error rather than silent corruption."""
    cluster = small_cluster()
    job = make_job()
    job.state = JobState.WAITING
    cluster.start(job, 0.0)
    cluster.finish(job, 100.0)
    with sanitized():
        with pytest.raises(ValueError, match="not running"):
            cluster.finish(job, 100.0)


def test_clean_start_finish_passes_sanitized():
    cluster = small_cluster()
    job = make_job()
    job.state = JobState.WAITING
    with sanitized():
        end = cluster.start(job, 0.0)
        cluster.finish(job, end)
    assert job.state is JobState.COMPLETED


# ----------------------------------------------------------------------
# Engine corruption
# ----------------------------------------------------------------------
def _tiny_simulation():
    jobs = [make_job(i, submit=float(i) * 10, nodes=2) for i in range(1, 4)]
    policy = make_policy("dds", "lxf", node_limit=50)
    return Simulation(jobs, policy, ClusterConfig(nodes=8, limits=JobLimits(8, 1e9)))


def test_time_travel_event_caught():
    sim = _tiny_simulation()
    queue = EventQueue()
    event = queue.push(5.0, EventKind.ARRIVAL, make_job())
    with sanitized():
        with pytest.raises(InvariantViolation, match="time travel"):
            sim._sanitize_batch([event], now=5.0, prev_time=10.0)


def test_started_job_in_queue_caught():
    sim = _tiny_simulation()
    job = make_job()
    job.state = JobState.WAITING
    job.start_time = 3.0  # corruption: queued job claims to have started
    with sanitized():
        with pytest.raises(InvariantViolation, match="started job"):
            sim._sanitize_queue([job], now=5.0)


def test_wrong_state_in_queue_caught():
    sim = _tiny_simulation()
    job = make_job()
    job.state = JobState.RUNNING
    with sanitized():
        with pytest.raises(InvariantViolation, match="state running"):
            sim._sanitize_queue([job], now=5.0)


class _CorruptingPolicy(SchedulingPolicy):
    """Flips a queued job to RUNNING without actually starting it."""

    name = "corruptor"

    def decide(self, now, waiting, running, cluster):
        if waiting:
            waiting[0].state = JobState.RUNNING
        return []


def test_corrupting_policy_caught_in_full_run():
    jobs = [make_job(1), make_job(2, submit=5.0)]
    sim = Simulation(
        jobs, _CorruptingPolicy(), ClusterConfig(nodes=8, limits=JobLimits(8, 1e9))
    )
    with sanitized():
        with pytest.raises(InvariantViolation, match="state running"):
            sim.run()


# ----------------------------------------------------------------------
# Profile corruption
# ----------------------------------------------------------------------
def test_overcommitted_reserve_caught():
    profile = AvailabilityProfile(capacity=8, origin=0.0)
    with sanitized():
        # check=False skips the feasibility scan; only the sanitizer
        # notices the segment going negative.
        with pytest.raises(AssertionError, match="free count"):
            profile.reserve(0.0, 10.0, nodes=12, check=False)


def test_tampered_profile_caught_on_next_mutation():
    profile = AvailabilityProfile(capacity=8, origin=0.0)
    profile.free[0] = 11  # corruption: free nodes above capacity
    with sanitized():
        with pytest.raises(AssertionError, match="outside"):
            profile.reserve(1.0, 5.0, nodes=2)


def test_reserve_release_conserves_node_seconds_sanitized():
    profile = AvailabilityProfile(capacity=8, origin=0.0)
    with sanitized():
        t1 = profile.reserve(10.0, 20.0, 3)
        t2 = profile.reserve(15.0, 5.0, 5)
        profile.release(t2)
        profile.release(t1)
    assert profile.segments() == [(0.0, 8)]


def _long_profile():
    """36 whole-machine reservations of ~3e7 s end to end: ~1.7e10
    occupied node-seconds, where the next job starts."""
    profile = AvailabilityProfile(capacity=16, origin=7200.0)
    for _ in range(36):
        start = profile.earliest_start(16, 29999999.9, 7200.0)
        profile.reserve(start, 29999999.9, 16)
    return profile, profile.earliest_start(1, 1.1, 7200.0)


def test_conservation_is_measured_on_the_reservation_window():
    """A 1.1 node-second reservation after ~1.7e10 occupied node-seconds
    conserves within the tolerance, reserved and released, on both
    profile classes: the check no longer subtracts whole-profile
    integrals, which lost 1.4e-6 here."""
    profile, start = _long_profile()
    view = profile.search_view()
    with sanitized():
        profile.release(profile.reserve(start, 1.1, 1))
        view.place(1, 1.1, 7200.0)
        view.unplace()


def test_conservation_check_catches_a_claim_one_node_short():
    """The same reservation committed one node short of the area it
    reports must still raise."""
    profile, start = _long_profile()
    end = start + 1.1
    before = _occupied_node_seconds(
        profile.times, profile.free, profile.capacity, start, end
    )
    profile.reserve(start, 1.1, 1)
    with pytest.raises(InvariantViolation, match="conserve node-seconds"):
        _sanitize_delta(
            profile.times, profile.free, profile.capacity, before, start, end,
            2 * (end - start), "reserve",
        )


# ----------------------------------------------------------------------
# Full search run: clean under the sanitizer and byte-identical
# ----------------------------------------------------------------------
def _run_dds(workload):
    policy = make_policy("dds", "lxf", node_limit=200)
    result = Simulation(
        workload.fresh_jobs(), policy, workload.cluster, window=workload.window
    ).run()
    return [
        (j.job_id, j.start_time, j.end_time)
        for j in sorted(result.jobs, key=lambda j: j.job_id)
    ]


def test_dds_run_sanitized_is_clean_and_byte_identical(monkeypatch):
    workload = generate_month("2003-07", seed=2005, scale=0.02)
    plain = _run_dds(workload)

    # Through the env-var path, exactly as CI runs it.
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    set_sanitize(None)
    try:
        assert sanitize_enabled() is True
        sanitized_run = _run_dds(workload)
    finally:
        monkeypatch.delenv("REPRO_SANITIZE")
        set_sanitize(None)

    assert sanitized_run == plain  # exact float equality, not approx
