"""Property-based whole-simulation tests across all policy families.

For randomly generated small workloads, every policy must deliver the
non-negotiables of a non-preemptive space-shared scheduler: every job
completes, starts never precede submissions, runtimes are honoured
exactly, and the machine is never oversubscribed at any instant.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backfill import fcfs_backfill, lxf_backfill
from repro.backfill.variants import LookaheadPolicy, SelectiveBackfillPolicy
from repro.core.scheduler import make_policy
from repro.simulator.engine import Simulation
from repro.simulator.job import Job
from repro.util.timeunits import HOUR, time_lt

from tests.conftest import small_cluster

CAPACITY = 8

job_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=4 * HOUR, allow_nan=False),  # submit
        st.integers(min_value=1, max_value=CAPACITY),  # nodes
        st.floats(min_value=60.0, max_value=3 * HOUR, allow_nan=False),  # runtime
        st.floats(min_value=1.0, max_value=3.0, allow_nan=False),  # R/T factor
    ),
    min_size=1,
    max_size=18,
)

POLICY_FACTORIES = {
    "fcfs-bf": fcfs_backfill,
    "lxf-bf": lxf_backfill,
    "dds": lambda: make_policy("dds", "lxf", node_limit=30),
    "lds": lambda: make_policy("lds", "fcfs", node_limit=30),
    "selective": SelectiveBackfillPolicy,
    "lookahead": LookaheadPolicy,
}


def _jobs(specs):
    return [
        Job(
            job_id=i,
            submit_time=submit,
            nodes=nodes,
            runtime=runtime,
            requested_runtime=runtime * factor,
        )
        for i, (submit, nodes, runtime, factor) in enumerate(specs)
    ]


def _check_invariants(jobs):
    for job in jobs:
        assert job.start_time is not None and job.end_time is not None
        assert job.start_time >= job.submit_time - 1e-9
        assert job.end_time == job.start_time + job.runtime
    # Oversubscription check at every start instant.  Times within
    # TIME_EPS are one instant to the simulator: a job ending that close
    # after ``t`` has already released its nodes to the decision at ``t``.
    events = sorted(jobs, key=lambda j: j.start_time)
    for job in events:
        t = job.start_time
        used = sum(
            other.nodes
            for other in jobs
            if other.start_time <= t and time_lt(t, other.end_time)
        )
        assert used <= CAPACITY, f"{used} nodes in use at t={t}"


@given(job_specs, st.sampled_from(sorted(POLICY_FACTORIES)))
@settings(max_examples=60, deadline=None)
def test_policy_invariants(specs, policy_name):
    jobs = _jobs(specs)
    policy = POLICY_FACTORIES[policy_name]()
    result = Simulation(jobs, policy, small_cluster(CAPACITY)).run()
    assert len(result.jobs) == len(jobs)
    _check_invariants(result.jobs)


@given(job_specs)
@settings(max_examples=30, deadline=None)
def test_fcfs_backfill_zero_excess_wrt_own_max(specs):
    from repro.metrics.excessive import excessive_wait_stats, reference_thresholds

    jobs = _jobs(specs)
    result = Simulation(jobs, fcfs_backfill(), small_cluster(CAPACITY)).run()
    max_wait, _ = reference_thresholds(result.jobs)
    assert excessive_wait_stats(result.jobs, max_wait).total_hours == 0.0


@given(job_specs)
@settings(max_examples=30, deadline=None)
def test_planning_with_requested_runtimes_still_sound(specs):
    jobs = _jobs(specs)
    policy = make_policy("dds", "lxf", node_limit=20, runtime_source=False)
    result = Simulation(jobs, policy, small_cluster(CAPACITY)).run()
    assert len(result.jobs) == len(jobs)
    _check_invariants(result.jobs)


@given(job_specs)
@settings(max_examples=20, deadline=None)
def test_same_policy_same_workload_is_deterministic(specs):
    a = Simulation(_jobs(specs), make_policy("dds", "lxf", node_limit=25),
                   small_cluster(CAPACITY)).run()
    b = Simulation(_jobs(specs), make_policy("dds", "lxf", node_limit=25),
                   small_cluster(CAPACITY)).run()
    starts_a = sorted((j.job_id, j.start_time) for j in a.jobs)
    starts_b = sorted((j.job_id, j.start_time) for j in b.jobs)
    assert starts_a == starts_b
