"""Tests for the priority-backfill engine (FCFS-BF, LXF-BF)."""

import pytest

from repro.backfill import BackfillPolicy, fcfs_backfill, lxf_backfill
from repro.backfill.priorities import FcfsPriority, SjfPriority
from repro.simulator.cluster import Cluster
from repro.simulator.engine import Simulation
from repro.simulator.policy import RunningJob
from repro.util.timeunits import HOUR, MINUTE

from tests.conftest import make_job, small_cluster


def _running_view(cluster, *jobs_and_ends):
    views = []
    for job, end in jobs_and_ends:
        views.append(RunningJob(job=job, release_time=end))
    return views


def test_names():
    assert fcfs_backfill().name == "FCFS-backfill"
    assert lxf_backfill().name == "LXF-backfill"
    assert BackfillPolicy(FcfsPriority(), reservations=2).name == "FCFS-backfill(res=2)"


def test_rejects_negative_reservations():
    with pytest.raises(ValueError):
        BackfillPolicy(FcfsPriority(), reservations=-1)


def test_backfill_never_delays_reservation(cluster4):
    """The classic EASY guarantee, on a constructed scenario.

    4-node machine; 2 nodes busy until t=100.  Queue (FCFS order):
    J1 needs 4 nodes (reserved at t=100), J2 needs 2 nodes for 200 s
    (would push J1 to t=200 -> must NOT start), J3 needs 2 nodes for
    100 s (finishes exactly at the shadow time -> may start).
    """
    cluster = Cluster(cluster4)
    blocker = make_job(job_id=0, nodes=2, runtime=100.0, waiting=True)
    cluster.start(blocker, 0.0)
    j1 = make_job(job_id=1, submit=0.0, nodes=4, runtime=50.0, waiting=True)
    j2 = make_job(job_id=2, submit=1.0, nodes=2, runtime=200.0, waiting=True)
    j3 = make_job(job_id=3, submit=2.0, nodes=2, runtime=100.0, waiting=True)
    policy = fcfs_backfill()
    policy.reset()
    started = policy.decide(
        0.0,
        [j1, j2, j3],
        _running_view(cluster, (blocker, 100.0)),
        cluster,
    )
    assert [j.job_id for j in started] == [3]


def test_zero_reservations_is_pure_greedy(cluster4):
    # Without reservations, nothing protects the blocked head job and the
    # long 2-node job backfills freely.
    cluster = Cluster(cluster4)
    blocker = make_job(job_id=0, nodes=2, runtime=100.0, waiting=True)
    cluster.start(blocker, 0.0)
    j1 = make_job(job_id=1, submit=0.0, nodes=4, runtime=50.0, waiting=True)
    j2 = make_job(job_id=2, submit=1.0, nodes=2, runtime=200.0, waiting=True)
    policy = BackfillPolicy(FcfsPriority(), reservations=0)
    policy.reset()
    started = policy.decide(
        0.0, [j1, j2], _running_view(cluster, (blocker, 100.0)), cluster
    )
    assert [j.job_id for j in started] == [2]


def test_priority_job_starts_when_machine_free(cluster4):
    cluster = Cluster(cluster4)
    j1 = make_job(job_id=1, submit=0.0, nodes=4, runtime=50.0, waiting=True)
    policy = fcfs_backfill()
    policy.reset()
    assert policy.decide(0.0, [j1], [], cluster) == [j1]
    assert policy.stats["priority_starts"] == 1


def test_fcfs_order_respected_when_all_fit(cluster4):
    cluster = Cluster(cluster4)
    jobs = [
        make_job(job_id=i, submit=float(i), nodes=1, runtime=100.0, waiting=True)
        for i in range(1, 4)
    ]
    policy = fcfs_backfill()
    policy.reset()
    started = policy.decide(5.0, list(reversed(jobs)), [], cluster)
    assert [j.job_id for j in started] == [1, 2, 3]


def test_lxf_priority_reorders_queue(cluster4):
    cluster = Cluster(cluster4)
    # Short job waiting long has much larger slowdown than a long fresh job.
    short = make_job(job_id=1, submit=0.0, nodes=4, runtime=MINUTE, waiting=True)
    long_ = make_job(job_id=2, submit=HOUR - 60, nodes=4, runtime=10 * HOUR, waiting=True)
    policy = lxf_backfill()
    policy.reset()
    started = policy.decide(HOUR, [long_, short], [], cluster)
    assert started[0].job_id == 1


def test_full_run_fcfs_vs_lxf_tradeoff():
    """LXF-BF lowers average slowdown; FCFS-BF keeps the maximum wait in
    check — the trade the paper builds on (§3.2), shown here on a small
    synthetic month driven to high load."""
    from repro.experiments.runner import simulate
    from repro.workloads.scaling import scale_to_load
    from repro.workloads.synthetic import generate_month

    workload = scale_to_load(generate_month("2003-07", seed=3, scale=0.1), 0.92)
    fcfs_run = simulate(workload, fcfs_backfill())
    lxf_run = simulate(workload, lxf_backfill())
    assert lxf_run.metrics.avg_bounded_slowdown < fcfs_run.metrics.avg_bounded_slowdown
    assert fcfs_run.metrics.max_wait_hours < lxf_run.metrics.max_wait_hours


def test_backfilled_starts_counted(cluster4):
    cluster = Cluster(cluster4)
    blocker = make_job(job_id=0, nodes=3, runtime=100.0, waiting=True)
    cluster.start(blocker, 0.0)
    wide = make_job(job_id=1, submit=0.0, nodes=4, runtime=10.0, waiting=True)
    tiny = make_job(job_id=2, submit=1.0, nodes=1, runtime=50.0, waiting=True)
    policy = fcfs_backfill()
    policy.reset()
    started = policy.decide(
        0.0, [wide, tiny], _running_view(cluster, (blocker, 100.0)), cluster
    )
    assert [j.job_id for j in started] == [2]
    assert policy.stats["backfilled_starts"] == 1


def test_no_starvation_under_fcfs_backfill():
    config = small_cluster(8)
    jobs = [
        make_job(
            job_id=i,
            submit=i * 120.0,
            nodes=(i * 3) % 8 + 1,
            runtime=HOUR * (1 + i % 3),
        )
        for i in range(40)
    ]
    result = Simulation(jobs, fcfs_backfill(), config).run()
    assert len(result.jobs) == 40


@pytest.mark.xfail(
    strict=True,
    raises=ValueError,
    reason="ROADMAP item 6: a breakpoint is snapped only to the one at or "
    "before it, so runtimes 10.0 and 10.000000000000002 leave two "
    "breakpoints 2e-15 apart",
)
def test_near_equal_runtimes_do_not_crash_fcfs_backfill():
    """The three 10.0-second jobs add a breakpoint at 10.0 just before the
    first job's 10.000000000000002; the 5-node job is reserved from 10.0,
    leaving 2 nodes on the 2e-15 segment between them.  The 3-node job's
    window ``[0, 10.000000000000002)`` ends within ``TIME_EPS`` of 10.0,
    so the fit test stops there and the job fits now; its ``reserve``
    ends on the breakpoint at 10.000000000000002, claims that segment too
    and raises "cannot reserve 3 nodes over [0.0, 10.000000000000002)"."""
    cluster = Cluster(small_cluster(8))
    shapes = [
        (1, 10.000000000000002),
        (1, 10.0),
        (1, 10.0),
        (1, 10.0),
        (5, 10.0),
        (3, 10.000000000000002),
    ]
    waiting = [
        make_job(job_id=i, submit=float(i), nodes=nodes, runtime=runtime, waiting=True)
        for i, (nodes, runtime) in enumerate(shapes)
    ]
    policy = fcfs_backfill()
    policy.reset()
    started = policy.decide(0.0, waiting, [], cluster)
    assert [j.job_id for j in started][:4] == [0, 1, 2, 3]


def test_requested_runtime_mode_protects_reservation(cluster4):
    # With R* = R the backfill window is judged by requested runtimes: a
    # job whose actual runtime fits but whose requested runtime crosses
    # the shadow time must NOT backfill.
    cluster = Cluster(cluster4)
    blocker = make_job(job_id=0, nodes=2, runtime=100.0, waiting=True)
    cluster.start(blocker, 0.0)
    j1 = make_job(job_id=1, submit=0.0, nodes=4, runtime=50.0, waiting=True)
    sneaky = make_job(
        job_id=2, submit=1.0, nodes=2, runtime=90.0, requested=500.0, waiting=True
    )
    policy = BackfillPolicy(FcfsPriority(), runtime_source=False)
    policy.reset()
    started = policy.decide(
        0.0, [j1, sneaky], _running_view(cluster, (blocker, 100.0)), cluster
    )
    assert started == []
