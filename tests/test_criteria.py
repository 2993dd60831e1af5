"""Tests for the generalized multi-level objective (criteria)."""

import pytest

from repro.core.criteria import (
    CriteriaEvaluator,
    DecisionContext,
    FairshareDelay,
    MaxWait,
    MultiScore,
    TotalBoundedSlowdown,
    TotalExcessiveWait,
    TotalWait,
    UsageTracker,
    WeightedWait,
    paper_objective,
)
from repro.util.timeunits import DAY, HOUR, MINUTE, WEEK

from tests.conftest import make_job


def _ctx(now=0.0, omega=0.0, runtimes=None, overuse=None):
    return DecisionContext(
        now=now,
        omega=omega,
        runtimes=runtimes or {},
        user_overuse=overuse or {},
    )


# ----------------------------------------------------------------------
# Individual criteria
# ----------------------------------------------------------------------
def test_total_excessive_wait_term():
    c = TotalExcessiveWait()
    job = make_job(submit=0.0)
    ctx = _ctx(omega=HOUR)
    assert c.term(job, 0.5 * HOUR, ctx) == 0.0
    assert c.term(job, 3 * HOUR, ctx) == 2 * HOUR


def test_total_bounded_slowdown_term_and_bound():
    c = TotalBoundedSlowdown()
    job = make_job(job_id=1, submit=0.0, runtime=HOUR)
    ctx = _ctx(runtimes={1: HOUR})
    assert c.term(job, HOUR, ctx) == pytest.approx(2.0)
    assert c.per_job_lower_bound() == 1.0


def test_total_wait_and_max_wait():
    tw, mw = TotalWait(), MaxWait()
    job = make_job(submit=HOUR)
    ctx = _ctx()
    assert tw.term(job, 3 * HOUR, ctx) == 2 * HOUR
    assert mw.accumulate(5.0, 3.0) == 5.0
    assert mw.accumulate(3.0, 5.0) == 5.0


def test_weighted_wait_uses_weight_function():
    c = WeightedWait(weight_of=lambda job: 2.0 if job.nodes > 4 else 1.0)
    small = make_job(submit=0.0, nodes=1)
    wide = make_job(submit=0.0, nodes=64)
    ctx = _ctx()
    assert c.term(wide, HOUR, ctx) == 2 * c.term(small, HOUR, ctx)


def test_weighted_wait_rejects_negative_weight():
    c = WeightedWait(weight_of=lambda job: -1.0)
    with pytest.raises(ValueError):
        c.term(make_job(), HOUR, _ctx())


def test_fairshare_delay_semantics():
    c = FairshareDelay(horizon=DAY)
    over = make_job(submit=0.0)
    over.user = "hog"
    ctx = _ctx(overuse={"hog": 0.5})
    # Starting immediately costs the full horizon x overuse.
    assert c.term(over, 0.0, ctx) == pytest.approx(0.5 * DAY)
    # The penalty decreases as the job waits...
    assert c.term(over, 6 * HOUR, ctx) == pytest.approx(0.5 * 18 * HOUR)
    # ...and never goes below zero (no starvation incentive past horizon).
    assert c.term(over, 2 * DAY, ctx) == 0.0
    # Fair users and anonymous jobs cost nothing.
    fair = make_job(submit=0.0)
    fair.user = "fair"
    assert c.term(fair, 0.0, ctx) == 0.0
    anon = make_job(submit=0.0)
    assert c.term(anon, 0.0, ctx) == 0.0


def test_fairshare_delay_validates_horizon():
    with pytest.raises(ValueError):
        FairshareDelay(horizon=0.0)


# ----------------------------------------------------------------------
# Evaluator
# ----------------------------------------------------------------------
def test_evaluator_matches_paper_objective():
    """Criteria-form scoring agrees with the fast two-level path."""
    from repro.core.objective import FixedBound, ObjectiveConfig

    jobs = [
        make_job(job_id=i, submit=0.0, runtime=HOUR * (i + 1), waiting=True)
        for i in range(4)
    ]
    starts = [0.0, HOUR, 5 * HOUR, 0.5 * HOUR]
    omega = 2 * HOUR
    ctx = _ctx(omega=omega, runtimes={j.job_id: j.runtime for j in jobs})
    evaluator = CriteriaEvaluator(paper_objective(), ctx)
    multi = evaluator.score_schedule(list(zip(jobs, starts)))

    cfg = ObjectiveConfig(bound=FixedBound(omega))
    classic = cfg.score_schedule(list(zip(jobs, starts)), now=0.0, omega=omega)
    assert multi.levels[0] == pytest.approx(classic.total_excessive_wait)
    assert multi.levels[1] == pytest.approx(classic.total_slowdown)


def test_evaluator_lexicographic_order():
    a = MultiScore((0.0, 5.0))
    b = MultiScore((1.0, 0.0))
    c = MultiScore((0.0, 4.0))
    assert c < a < b


def test_evaluator_max_level_in_lower_bound():
    # MaxWait accumulates by max, so the remaining-jobs bound must not
    # add per-job increments to it.
    ctx = _ctx(runtimes={})
    evaluator = CriteriaEvaluator((MaxWait(), TotalBoundedSlowdown()), ctx)
    acc = (3.0, 7.0)
    lower = evaluator.lower_bound(acc, jobs_left=5)
    assert lower.levels[0] == 3.0  # max unchanged
    assert lower.levels[1] == 12.0  # slowdowns add >= 1 each


def test_evaluator_requires_criteria():
    with pytest.raises(ValueError):
        CriteriaEvaluator((), _ctx())


# ----------------------------------------------------------------------
# Usage tracker
# ----------------------------------------------------------------------
def test_usage_tracker_accumulates_and_decays():
    tracker = UsageTracker(half_life=WEEK)
    job = make_job(nodes=10, runtime=HOUR)
    job.user = "alice"
    tracker.record_start(job, now=0.0, planned_runtime=HOUR)
    assert tracker.usage_of("alice") == pytest.approx(10 * HOUR)
    # One half-life later, half the usage remains.
    tracker.decay_to(WEEK)
    assert tracker.usage_of("alice") == pytest.approx(5 * HOUR)


def test_usage_tracker_overuse_shares():
    tracker = UsageTracker()
    heavy = make_job(nodes=30, runtime=HOUR)
    heavy.user = "heavy"
    light = make_job(nodes=10, runtime=HOUR)
    light.user = "light"
    tracker.record_start(heavy, 0.0, HOUR)
    tracker.record_start(light, 0.0, HOUR)
    overuse = tracker.overuse(0.0, ["heavy", "light"])
    # Shares 0.75 / 0.25 against fair 0.5.
    assert overuse["heavy"] == pytest.approx(0.25)
    assert overuse["light"] == 0.0


def test_usage_tracker_edge_cases():
    tracker = UsageTracker()
    assert tracker.overuse(0.0, []) == {}
    assert tracker.overuse(0.0, ["a", "b"]) == {"a": 0.0, "b": 0.0}
    anonymous = make_job(nodes=4, runtime=HOUR)
    tracker.record_start(anonymous, 0.0, HOUR)  # no user: ignored
    assert tracker.overuse(0.0, ["a"]) == {"a": 0.0}
    with pytest.raises(ValueError):
        UsageTracker(half_life=0.0)


def test_usage_tracker_reset():
    tracker = UsageTracker()
    job = make_job(nodes=4, runtime=HOUR)
    job.user = "u"
    tracker.record_start(job, 0.0, HOUR)
    tracker.reset()
    assert tracker.usage_of("u") == 0.0


# ----------------------------------------------------------------------
# End-to-end: custom objectives inside the search policy
# ----------------------------------------------------------------------
def test_policy_with_paper_criteria_matches_default():
    """DDS with explicit paper criteria decides like the built-in path."""
    from repro.core.scheduler import make_policy
    from repro.experiments.runner import simulate
    from repro.workloads.synthetic import generate_month

    workload = generate_month("2003-06", seed=6, scale=0.04)
    default = simulate(workload, make_policy("dds", "lxf", node_limit=80))
    explicit_policy = make_policy("dds", "lxf", node_limit=80)
    explicit_policy.criteria = paper_objective()
    explicit = simulate(workload, explicit_policy)
    assert default.metrics.avg_wait_hours == pytest.approx(
        explicit.metrics.avg_wait_hours
    )
    assert default.metrics.max_wait_hours == pytest.approx(
        explicit.metrics.max_wait_hours
    )


def test_fairshare_policy_defers_heavy_user():
    """With a fairshare level, a saturating user's jobs wait longer than
    under the plain objective, and the light user's jobs wait less."""
    from repro.core.scheduler import make_policy
    from repro.experiments.runner import simulate
    from repro.simulator.job import Job
    from repro.workloads.trace import Workload
    from tests.conftest import small_cluster

    # A hog floods the 4-node machine; a light user submits sparse jobs.
    jobs = []
    jid = 0
    for k in range(24):
        jid += 1
        jobs.append(
            Job(job_id=jid, submit_time=k * 600.0, nodes=4, runtime=HOUR, user="hog")
        )
        if k % 4 == 0:
            jid += 1
            jobs.append(
                Job(
                    job_id=jid,
                    submit_time=k * 600.0 + 1,
                    nodes=4,
                    runtime=HOUR,
                    user="light",
                )
            )
    workload = Workload(
        name="fairshare-demo",
        jobs=jobs,
        window=(0.0, 24 * 600.0 + 2),
        cluster=small_cluster(4),
    )

    plain = simulate(workload, make_policy("dds", "lxf", node_limit=200))
    fair_policy = make_policy(
        "dds",
        "lxf",
        node_limit=200,
        criteria=(FairshareDelay(horizon=DAY), *paper_objective()),
    )
    assert "fairshare-delay" in fair_policy.name
    fair = simulate(workload, fair_policy)

    def avg_wait(run, user):
        waits = [j.wait_time for j in run.jobs if j.user == user]
        return sum(waits) / len(waits)

    assert avg_wait(fair, "light") < avg_wait(plain, "light")
    assert avg_wait(fair, "hog") >= avg_wait(plain, "hog")


def test_runtime_proportional_excess():
    from repro.core.criteria import RuntimeProportionalExcess

    c = RuntimeProportionalExcess(base=HOUR, factor=2.0)
    short = make_job(job_id=1, submit=0.0, runtime=HOUR)
    long_ = make_job(job_id=2, submit=0.0, runtime=10 * HOUR)
    ctx = _ctx(runtimes={1: HOUR, 2: 10 * HOUR})
    # Bounds: 1h + 2xR*.
    assert c.bound_for(short, ctx) == 3 * HOUR
    assert c.bound_for(long_, ctx) == 21 * HOUR
    # A 10-hour wait is excessive for the short job, fine for the long one.
    assert c.term(short, 10 * HOUR, ctx) == pytest.approx(7 * HOUR)
    assert c.term(long_, 10 * HOUR, ctx) == 0.0
    with pytest.raises(ValueError):
        RuntimeProportionalExcess(base=-1.0)


def test_runtime_proportional_excess_in_policy():
    """The paper's §6.1 suggestion end-to-end: per-job bounds favour
    short jobs without a starvation cliff for long ones."""
    from repro.core.criteria import RuntimeProportionalExcess, TotalBoundedSlowdown
    from repro.core.scheduler import make_policy
    from repro.experiments.runner import simulate
    from repro.workloads.synthetic import generate_month

    workload = generate_month("2003-06", seed=12, scale=0.04)
    policy = make_policy(
        "dds",
        "lxf",
        node_limit=80,
        criteria=(RuntimeProportionalExcess(), TotalBoundedSlowdown()),
    )
    run = simulate(workload, policy)
    assert run.metrics.n_jobs == len(workload.jobs_in_window())
