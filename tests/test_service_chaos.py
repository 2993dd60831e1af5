"""Chaos suite for the decision service (``repro.service``).

The service promise under injected faults (``docs/service.md``): every
accepted request gets exactly one structurally valid response within
``deadline + grace``; any answer weaker than the primary policy is
labeled ``degraded`` with its ladder mode; overload sheds instead of
hanging; and a crashed service recovers tenants from their snapshots to
a state that finishes the trace exactly as the batch simulator would.
"""

from __future__ import annotations

import asyncio
import logging
import math
import threading
import time

import pytest

from repro.backfill import fcfs_backfill
from repro.cli import parse_policy
from repro.core.ckernel import _kernel_arrays
from repro.core.search import DiscrepancySearch
from repro.predict.source import RuntimeSource
from repro.service.api import (
    STATUSES,
    DecisionRequest,
    JobSpec,
    TenantSLO,
)
from repro.service import service as service_module
from repro.service.executor import MODES, DecisionLadder
from repro.service.service import (
    AdmissionError,
    DecisionService,
    ServiceConfig,
    retry_backoff,
)
from repro.service.tenant import TenantEngine
from repro.simulator.cluster import Cluster
from repro.simulator.engine import Simulation
from repro.simulator.policy import RunningJob, SchedulingPolicy
from repro.util.faults import FaultPlan, faults_suppressed, injected_faults
from repro.util.rng import RngStream
from repro.util.sanitize import sanitize_enabled
from repro.util.timeunits import HOUR, time_eq
from repro.workloads.synthetic import generate_month
from tests.conftest import make_job, small_cluster

#: Degraded rungs: anything the ladder answers after the primary failed.
DEGRADED_MODES = frozenset(MODES) - {"search"}

#: Measurement slack on shared CI runners before a response counts as late
#: — this suite's own allowance, not part of the SLO or of any budget.
GRACE_SECONDS = 5.0


def _workload():
    return generate_month("2003-07", seed=2005, scale=0.02)


def _search_policy():
    return parse_policy("dds/lxf/dynB", 200, True)


def _job_times(jobs):
    return {j.job_id: (j.start_time, j.end_time) for j in jobs}


def _trace_requests(tenant_id, jobs):
    """One request per distinct submit instant (the tenant contract)."""
    ordered = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
    groups: list[list] = []
    for job in ordered:
        if groups and time_eq(job.submit_time, groups[-1][0].submit_time):
            groups[-1].append(job)
        else:
            groups.append([job])
    return [
        DecisionRequest(
            tenant=tenant_id,
            now=group[0].submit_time,
            arrivals=tuple(JobSpec.from_job(j) for j in group),
        )
        for group in groups
    ]


async def _drive(service, tenant_id, requests, seed, arrivals=(1, 3), nodes=(1, 5)):
    """Closed-loop synthetic client: one response awaited per request, each
    with ``arrivals`` jobs of ``nodes`` nodes (half-open ranges)."""
    stream = RngStream(seed, f"chaos/{tenant_id}")
    now = 0.0
    responses = []
    for i in range(requests):
        now += float(stream.uniform(60.0, 900.0))
        batch = tuple(
            JobSpec(
                job_id=i * arrivals[1] + k,
                nodes=int(stream.integers(*nodes)),
                runtime=float(stream.uniform(300.0, HOUR)),
            )
            for k in range(int(stream.integers(*arrivals)))
        )
        responses.append(
            await service.submit(
                DecisionRequest(tenant=tenant_id, now=now, arrivals=batch)
            )
        )
    return responses


def _chaos_service(slo=None, **config_kwargs):
    return DecisionService(
        lambda tenant_id: fcfs_backfill(),
        config=ServiceConfig(default_slo=slo or TenantSLO(), **config_kwargs),
        cluster_config=small_cluster(8),
    )


# ----------------------------------------------------------------------
# The headline chaos property
# ----------------------------------------------------------------------
def test_chaos_every_request_gets_a_valid_labeled_response():
    """Under intake and decide faults: one response per request, every
    status legal, every weakened answer labeled with its ladder mode,
    nothing blows the deadline+grace envelope."""
    _check_chaos_property()


def _check_chaos_property():
    plan = FaultPlan.parse("seed=7,service.request=0.3,service.decide=0.5")
    slo = TenantSLO(deadline_seconds=5.0, max_retries=2)

    async def scenario():
        service = _chaos_service(slo=slo)
        for tenant_id in ("alpha", "beta"):
            service.register_tenant(tenant_id)
        async with service:
            batches = await asyncio.gather(
                _drive(service, "alpha", 30, seed=11),
                _drive(service, "beta", 30, seed=12),
            )
        return service, [r for batch in batches for r in batch]

    with injected_faults(plan) as injector:
        service, responses = asyncio.run(scenario())

    assert len(responses) == 60  # one response per request, none lost
    assert injector.fired["service.decide"] > 0  # the chaos actually bit
    degraded_seen = 0
    for response in responses:
        assert response.status in STATUSES
        assert response.latency_seconds <= (
            response.deadline_seconds + GRACE_SECONDS
        )
        if response.status == "ok":
            for decision in response.decisions:
                assert decision.mode in MODES
                if decision.degraded:
                    assert decision.mode in DEGRADED_MODES
            assert response.degraded == any(
                d.degraded for d in response.decisions
            )
            degraded_seen += response.degraded
        else:
            assert response.status == "error"  # never silently dropped
            assert response.error
    assert degraded_seen > 0  # the ladder demonstrably descended
    assert service.stats["requests"] == 60
    assert (
        service.stats["ok"] + service.stats["errors"] == 60
    )  # nothing shed or rejected in this scenario
    return [service.stats]


def test_intake_fault_exhaustion_surfaces_error_not_hang():
    plan = FaultPlan.parse("seed=3,service.request=1.0")
    slo = TenantSLO(deadline_seconds=5.0, max_retries=1)

    async def scenario():
        service = _chaos_service(slo=slo)
        service.register_tenant("t")
        async with service:
            return await service.submit(
                DecisionRequest(
                    tenant="t", now=1.0,
                    arrivals=(JobSpec(job_id=1, nodes=1, runtime=HOUR),),
                )
            )

    with injected_faults(plan):
        response = asyncio.run(scenario())
    assert response.status == "error"
    assert "intake failed" in response.error
    assert "1 retries" in response.error


class _NoRuntimeBelief(RuntimeSource):
    """A runtime source that fails: takes the heuristic rung down too."""

    label = "none"

    def of(self, job):
        raise RuntimeError("no runtime belief")


def test_decide_faults_always_degrade_never_fail():
    """With the primary path failing on every decision, the next rung
    that can answer does — degraded, labeled, still valid: the anytime
    search for a search policy, the backfill heuristic for a policy with
    no searcher, and starting nothing when even the heuristic fails."""
    assert MODES == ("search", "anytime", "heuristic", "noop")
    plan = FaultPlan.parse("seed=5,service.decide=1.0")

    async def scenario(policy_factory):
        service = DecisionService(
            policy_factory,
            config=ServiceConfig(
                default_slo=TenantSLO(deadline_seconds=10.0)
            ),
            cluster_config=small_cluster(8),
        )
        service.register_tenant("t")
        async with service:
            return await _drive(service, "t", 10, seed=21)

    reached = set()
    for policy_factory, rung in (
        (lambda tenant_id: _search_policy(), "anytime"),
        (lambda tenant_id: fcfs_backfill(), "heuristic"),
        (lambda tenant_id: fcfs_backfill(_NoRuntimeBelief()), "noop"),
    ):
        with injected_faults(plan):
            responses = asyncio.run(scenario(policy_factory))
        assert all(r.status == "ok" for r in responses)
        assert all(r.degraded for r in responses)
        modes = {d.mode for r in responses for d in r.decisions}
        assert modes <= DEGRADED_MODES
        assert rung in modes
        reached |= modes
    assert reached == DEGRADED_MODES


def test_one_stall_does_not_degrade_the_tenant_for_good():
    """A host stall inflates the full search's cost estimate past the
    budget; the anytime rung's own measurements must bring the estimate
    back down, because the rung it rules out can no longer correct it."""
    policy = _search_policy()
    ladder = DecisionLadder(policy)
    cluster = Cluster(small_cluster(8))
    waiting = tuple(
        make_job(job_id=i, submit=0.0, nodes=1 + i % 4, runtime=600.0 * i, waiting=True)
        for i in range(1, 7)
    )
    decide = policy.decide

    def stalled_once(*args):
        policy.decide = decide
        time.sleep(0.5)
        return decide(*args)

    policy.decide = stalled_once
    modes = []
    with faults_suppressed():
        for _ in range(12):
            _, mode, _ = ladder.decide(
                0.0, waiting, (), cluster, time.perf_counter() + 0.2
            )
            modes.append(mode)
    assert modes[:2] == ["search", "anytime"]  # the stall priced search out
    assert modes[-1] == "search"  # ... for a bounded number of decisions
    assert ladder.inline_cost * 3 < 0.2


def test_decisions_that_search_nothing_leave_the_cost_estimate_alone():
    """A near-free answer (empty queue, no waiting job fits) is not a
    measurement of a search: a run of them must not decay the estimate
    that prices the tenant's next long request."""
    policy = _search_policy()
    ladder = DecisionLadder(policy)
    cluster = Cluster(small_cluster(8))
    blocker = make_job(job_id=90, nodes=6, runtime=HOUR)
    running = (RunningJob(job=blocker, release_time=HOUR),)
    too_wide = (make_job(job_id=1, nodes=4, runtime=600.0, waiting=True),)
    fits = (make_job(job_id=2, nodes=2, runtime=600.0, waiting=True),)
    with faults_suppressed():
        ladder.decide(0.0, fits, running, cluster)
        assert ladder.inline_cost > 0.0
        ladder.inline_cost = primed = 0.02  # as after a run of long searches
        for _ in range(25):
            assert ladder.decide(0.0, too_wide, running, cluster)[1] == "search"
            assert ladder.decide(0.0, (), running, cluster)[1] == "search"
        assert ladder.inline_cost == primed
        assert policy.stats["nofit_decisions"] == 25
        ladder.decide(0.0, fits, running, cluster)  # a real search still counts
        assert ladder.inline_cost < primed


def test_retry_backoff_is_deterministic_and_capped():
    delays = [retry_backoff(a) for a in range(8)]
    assert delays == sorted(delays)
    assert delays[0] == pytest.approx(0.05)
    assert max(delays) == 0.5
    assert [retry_backoff(a) for a in range(8)] == delays


# ----------------------------------------------------------------------
# Overload and admission control
# ----------------------------------------------------------------------
def test_try_submit_sheds_on_a_full_queue_without_touching_state():
    async def scenario():
        service = _chaos_service(slo=TenantSLO(queue_limit=1))
        service.register_tenant("t")
        async with service:
            requests = [
                DecisionRequest(
                    tenant="t", now=10.0,
                    arrivals=(JobSpec(job_id=i, nodes=1, runtime=HOUR),),
                )
                for i in range(20)
            ]
            responses = await asyncio.gather(
                *(service.try_submit(r) for r in requests)
            )
            return service, responses

    service, responses = asyncio.run(scenario())
    by_status = {s: sum(r.status == s for r in responses) for s in STATUSES}
    assert by_status["ok"] == 1  # the one that fit the queue
    assert by_status["shed"] == 19
    assert service.stats["shed"] == 19
    # Shed requests never reached the engine: one decision, one job.
    engine = service.tenant("t")
    assert engine.decision_count == 1
    assert len(engine.jobs) == 1


def test_admission_control_rejects_bad_ids_duplicates_and_overflow():
    async def scenario():
        service = _chaos_service(max_tenants=2)
        service.register_tenant("a")
        with pytest.raises(AdmissionError, match="invalid tenant id"):
            service.register_tenant("../escape")
        with pytest.raises(AdmissionError, match="already registered"):
            service.register_tenant("a")
        service.register_tenant("b")
        with pytest.raises(AdmissionError, match="full"):
            service.register_tenant("c")
        with pytest.raises(AdmissionError, match="unknown tenant"):
            await service.submit(DecisionRequest(tenant="ghost", now=1.0))
        await service.close()
        with pytest.raises(AdmissionError, match="closed"):
            service.register_tenant("late")

    asyncio.run(scenario())


def test_closed_service_refuses_requests_and_starts_no_consumer():
    """After close() the final snapshot is on disk and nothing would stop
    a new consumer: both entry points refuse, and tenant state stays as
    the snapshot recorded it."""
    request = DecisionRequest(
        tenant="t", now=5.0,
        arrivals=(JobSpec(job_id=1, nodes=1, runtime=HOUR),),
    )

    async def scenario():
        service = _chaos_service()
        service.register_tenant("t")
        await service.close()
        for entry in (service.submit, service.try_submit):
            with pytest.raises(AdmissionError, match="service is closed"):
                await entry(request)
        return service

    service = asyncio.run(scenario())
    assert service._require("t").consumer is None
    assert service.tenant("t").decision_count == 0
    assert service.stats["requests"] == 0


def test_contract_violations_are_rejected_responses():
    async def scenario():
        service = _chaos_service()
        service.register_tenant("t")
        async with service:
            ok = await service.submit(
                DecisionRequest(
                    tenant="t", now=5.0,
                    arrivals=(JobSpec(job_id=1, nodes=1, runtime=HOUR),),
                )
            )
            stale = await service.submit(
                DecisionRequest(
                    tenant="t", now=5.0,
                    arrivals=(JobSpec(job_id=2, nodes=1, runtime=HOUR),),
                )
            )
            return service, ok, stale

    service, ok, stale = asyncio.run(scenario())
    assert ok.status == "ok"
    assert stale.status == "rejected"
    assert "watermark" in stale.error
    assert service.stats["rejected"] == 1
    assert 2 not in service.tenant("t").jobs  # rejection mutated nothing


# ----------------------------------------------------------------------
# Snapshot corruption and crash recovery
# ----------------------------------------------------------------------
def test_snapshot_fault_corrupts_save_and_recovery_falls_back(tmp_path):
    from repro.service.recovery import latest_tenant_snapshot, snapshot_tenant

    engine = TenantEngine("t", fcfs_backfill(), cluster_config=small_cluster(4))
    engine.handle(
        DecisionRequest(
            tenant="t", now=10.0,
            arrivals=(JobSpec(job_id=1, nodes=1, runtime=HOUR),),
        )
    )
    with faults_suppressed():  # this save must survive an ambient plan
        snapshot_tenant(engine, tmp_path)
    good_count = engine.decision_count
    engine.handle(
        DecisionRequest(
            tenant="t", now=20.0,
            arrivals=(JobSpec(job_id=2, nodes=1, runtime=HOUR),),
        )
    )
    with injected_faults(FaultPlan.parse("seed=1,service.snapshot=1.0")):
        with pytest.raises(OSError, match="short write"):
            snapshot_tenant(engine, tmp_path)  # half written, then failed

    recovered = latest_tenant_snapshot(tmp_path, "t")
    assert recovered is not None
    assert recovered.decision_count == good_count  # skipped the torn one


def test_failed_snapshot_is_logged_and_the_request_still_answered(
    tmp_path, monkeypatch, caplog
):
    def disk_full(writer, engine):
        raise OSError("disk full")

    monkeypatch.setattr("repro.service.recovery.SnapshotWriter.save", disk_full)

    async def scenario():
        service = _chaos_service(
            snapshot_root=tmp_path, snapshot_every_decisions=1
        )
        service.register_tenant("t")
        response = await service.submit(
            DecisionRequest(
                tenant="t", now=5.0,
                arrivals=(JobSpec(job_id=1, nodes=1, runtime=HOUR),),
            )
        )
        await service.close(final_snapshot=False)
        return service, response

    with faults_suppressed(), caplog.at_level(
        logging.WARNING, logger="repro.service.recovery"
    ):
        service, response = asyncio.run(scenario())
    assert response.status == "ok"
    assert service.stats["snapshots"] == 0
    (record,) = [r for r in caplog.records if r.name == "repro.service.recovery"]
    assert "tenant t at decision 1 failed: disk full" in record.getMessage()


@pytest.mark.fault_sensitive  # asserts bit-identical replay decisions
def test_crashed_service_recovers_tenant_and_finishes_the_trace(tmp_path):
    """Crash-recovery equivalence: run part of a trace, "crash" (drop the
    service without closing), re-register the tenant in a fresh service,
    re-send the whole trace — pre-watermark requests bounce off the
    watermark, the rest complete, and the final schedule is exactly the
    batch simulator's."""
    _check_crash_recovery(tmp_path)


def _check_crash_recovery(tmp_path):
    workload = _workload()
    batch = Simulation(
        workload.fresh_jobs(), _search_policy(), workload.cluster,
        window=workload.window,
    ).run()
    requests = _trace_requests("t", workload.fresh_jobs())
    lives = []

    def service_for(root):
        return DecisionService(
            lambda tenant_id: _search_policy(),
            config=ServiceConfig(
                default_slo=TenantSLO(deadline_seconds=30.0),
                snapshot_root=root,
                snapshot_every_decisions=8,
            ),
            cluster_config=workload.cluster,
        )

    async def first_life():
        service = service_for(tmp_path)
        service.register_tenant("t")
        for request in requests[: len(requests) * 2 // 3]:
            response = await service.submit(request)
            assert response.status == "ok"
        # No close(): the process "crashes" here.  Snapshots on disk are
        # all that survives.
        lives.append(service.stats)
        return service.stats["snapshots"]

    snapshots_written = asyncio.run(first_life())
    assert snapshots_written > 0

    async def second_life():
        service = service_for(tmp_path)
        engine = service.register_tenant("t")  # resumes from newest snapshot
        assert service.stats["recovered_tenants"] == 1
        watermark = engine.decided_through
        assert watermark > float("-inf")
        statuses = []
        async with service:
            for request in requests:
                response = await service.submit(request)
                statuses.append((request.now, response.status))
            drain = await service.submit(
                DecisionRequest(tenant="t", now=batch.sim_end_time + 1.0)
            )
            assert drain.status == "ok"
            job_spans = _job_times(service.tenant("t").completed_jobs)
        lives.append(service.stats)
        return watermark, statuses, job_spans

    watermark, statuses, job_spans = asyncio.run(second_life())
    for now, status in statuses:
        assert status == ("rejected" if now <= watermark else "ok")
    assert any(status == "ok" for _, status in statuses)  # work was replayed
    assert job_spans == _job_times(batch.jobs)
    return lives


@pytest.mark.fault_sensitive  # injected decide faults change decisions
def test_fault_free_service_run_matches_batch_run():
    """The full async stack — queues, executor threads, the ladder — adds
    nothing and removes nothing: fault-free decisions are the batch
    simulator's, with every response labeled not-degraded."""
    _check_fault_free_run_matches_batch()


def _check_fault_free_run_matches_batch():
    workload = _workload()
    batch = Simulation(
        workload.fresh_jobs(), _search_policy(), workload.cluster,
        window=workload.window,
    ).run()

    async def scenario():
        service = DecisionService(
            lambda tenant_id: _search_policy(),
            config=ServiceConfig(
                default_slo=TenantSLO(deadline_seconds=30.0)
            ),
            cluster_config=workload.cluster,
        )
        service.register_tenant("t")
        async with service:
            responses = []
            for request in _trace_requests("t", workload.fresh_jobs()):
                responses.append(await service.submit(request))
            responses.append(
                await service.submit(
                    DecisionRequest(tenant="t", now=batch.sim_end_time + 1.0)
                )
            )
            job_spans = _job_times(service.tenant("t").completed_jobs)
            count = service.tenant("t").decision_count
        return service, responses, job_spans, count

    service, responses, job_spans, count = asyncio.run(scenario())
    assert all(r.status == "ok" and not r.degraded for r in responses)
    modes = {d.mode for r in responses for d in r.decisions}
    assert modes == {"search"}
    assert count == batch.decision_count
    assert job_spans == _job_times(batch.jobs)
    return [service.stats]


# ----------------------------------------------------------------------
# Where a request runs: the loop thread or a worker (ON_LOOP_MAX_SECONDS)
# ----------------------------------------------------------------------
@pytest.fixture(params=[0.0, math.inf], ids=["thread", "loop"])
def unused_route(request, monkeypatch):
    """Pin every request to one route (a test-only patch, not an option);
    the value is the ``service.stats`` key that must then stay zero."""
    monkeypatch.setattr(service_module, "ON_LOOP_MAX_SECONDS", request.param)
    return "on_loop" if request.param == 0.0 else "offloaded"


def _took_one_route(stats_of_each_service, unused_route):
    for stats in stats_of_each_service:
        assert stats[unused_route] == 0
        assert stats["on_loop"] + stats["offloaded"] > 0


def test_chaos_property_holds_on_either_route(unused_route):
    _took_one_route(_check_chaos_property(), unused_route)


@pytest.mark.fault_sensitive
def test_crash_recovery_matches_batch_on_either_route(unused_route, tmp_path):
    _took_one_route(_check_crash_recovery(tmp_path), unused_route)


@pytest.mark.fault_sensitive
def test_fault_free_run_matches_batch_on_either_route(unused_route):
    _took_one_route(_check_fault_free_run_matches_batch(), unused_route)


# ----------------------------------------------------------------------
# A degraded answer is a function of (problem, node budget)
# ----------------------------------------------------------------------
#: More nodes than any slice of a 0.2 s deadline buys at a measured rate,
#: so after the first decision every budget is the rung's own; the queue
#: ``_drive`` builds (3-5 arrivals of 2-6 nodes on 8) is deep enough for
#: those budgets to stop searches.
ANYTIME_L = 10**7


def test_anytime_answer_is_a_plain_search_at_its_node_budget(unused_route):
    """Every decision faulted onto the degraded rungs: each anytime answer
    equals a fresh search of the problem it searched, at the node budget
    the rung gave it, on the policy's engine — the C kernel when built."""
    policy = parse_policy("dds/lxf/dynB", ANYTIME_L, True)
    searcher = policy.searcher
    search, decide = searcher.search, policy.decide
    searched: list = []  # (budget, problem) of the decision in flight
    answers: list = []  # (budget, problem, answer)

    def recording_search(problem):
        searched.append((searcher.node_limit, problem))
        return search(problem)

    def recording_decide(now, waiting, running, cluster):
        searched.clear()
        jobs = decide(now, waiting, running, cluster)
        if searched:
            answers.append((*searched[-1], jobs))
        return jobs

    searcher.search = recording_search
    policy.decide = recording_decide

    async def scenario():
        service = DecisionService(
            lambda tenant_id: policy,
            config=ServiceConfig(default_slo=TenantSLO(deadline_seconds=0.2)),
            cluster_config=small_cluster(8),
        )
        service.register_tenant("t")
        async with service:
            responses = await _drive(
                service, "t", 12, seed=21, arrivals=(3, 6), nodes=(2, 7)
            )
        return service, responses

    with injected_faults(FaultPlan.parse("seed=5,service.decide=1.0")):
        service, responses = asyncio.run(scenario())
    _took_one_route([service.stats], unused_route)
    assert all(r.status == "ok" and r.degraded for r in responses)
    assert "anytime" in {d.mode for r in responses for d in r.decisions}
    assert searcher.node_limit == ANYTIME_L  # restored after every call
    assert any(budget < ANYTIME_L for budget, _, _ in answers)
    assert policy.stats["limit_hits"] > 0  # some budget cut a search short
    on_kernel = searcher.engine == "compiled" and not sanitize_enabled()
    for budget, problem, answer in answers:
        plain = DiscrepancySearch(node_limit=budget, engine=searcher.engine)
        expected = plain.search(problem).jobs_startable_now(problem.now)
        assert [j.job_id for j in answer] == [j.job_id for j in expected]
        if on_kernel:
            assert _kernel_arrays(problem) is not None


class _ProbePolicy(SchedulingPolicy):
    """FCFS backfill that records the thread of every decision, sleeps
    ``cost`` seconds in each, and waits for ``gate`` when it has one."""

    name = "probe"

    def __init__(self, log=None):
        self.inner = fcfs_backfill()
        self.runtime_source = self.inner.runtime_source
        self.threads: list[int] = []
        self.log = log
        self.cost = 0.0
        self.gate: threading.Event | None = None

    def decide(self, now, waiting, running, cluster):
        self.threads.append(threading.get_ident())
        if self.log is not None:
            self.log.append(self)
        if self.cost:
            time.sleep(self.cost)
        if self.gate is not None:
            self.gate.wait(timeout=5.0)  # like the kernel: GIL released
        return self.inner.decide(now, waiting, running, cluster)


def _probe_service(*tenant_ids, nodes=8, log=None):
    """A service whose tenants run :class:`_ProbePolicy`, by tenant id."""
    policies = {tenant_id: _ProbePolicy(log) for tenant_id in tenant_ids}
    service = DecisionService(
        policies.__getitem__, cluster_config=small_cluster(nodes)
    )
    for tenant_id in tenant_ids:
        service.register_tenant(tenant_id)
    return service, policies


def _one_job(tenant_id, i, runtime=HOUR):
    """Request ``i`` of a tenant: one single-node arrival at ``t = i``."""
    return DecisionRequest(
        tenant=tenant_id, now=float(i),
        arrivals=(JobSpec(job_id=i, nodes=1, runtime=runtime),),
    )


def test_cheap_request_runs_on_the_loop_and_a_costly_one_on_a_worker():
    async def scenario():
        service, policies = _probe_service("cheap", "costly")
        # Primed as if its decisions had been taking 10 ms each.
        service._require("costly").ladder.inline_cost = 0.01
        async with service:
            for tenant_id in ("cheap", "costly"):
                response = await service.submit(_one_job(tenant_id, 1))
                assert response.status == "ok" and not response.degraded
        return threading.get_ident(), service, policies

    with faults_suppressed():
        loop_thread, service, policies = asyncio.run(scenario())
    assert policies["cheap"].threads == [loop_thread]
    (worker,) = policies["costly"].threads
    assert worker != loop_thread
    assert (service.stats["on_loop"], service.stats["offloaded"]) == (1, 1)


def test_loop_stays_live_while_a_long_decision_is_in_flight():
    """Tenant A's long decision is on a worker, so tenant B's requests —
    on the loop — are taken in and answered before A's returns."""

    async def scenario():
        service, policies = _probe_service("a", "b")
        service._require("a").ladder.inline_cost = 0.01
        policies["a"].gate = threading.Event()
        async with service:
            slow = asyncio.ensure_future(service.submit(_one_job("a", 1)))
            while not policies["a"].threads:  # until A's decision has begun
                await asyncio.sleep(0.001)
            answered = [
                await service.submit(_one_job("b", 1)),
                await service.try_submit(_one_job("b", 2)),
            ]
            a_in_flight = not slow.done()
            policies["a"].gate.set()
            answered.append(await slow)
        return a_in_flight, answered

    with faults_suppressed():
        a_in_flight, answered = asyncio.run(scenario())
    assert a_in_flight
    assert [r.status for r in answered] == ["ok", "ok", "ok"]


def test_backlogged_tenants_interleave_on_the_loop():
    """Nothing in an on-loop request awaits, so the consumer must yield
    between two of them: neither tenant gets more than one request ahead."""
    log: list[_ProbePolicy] = []

    async def scenario():
        service, policies = _probe_service("a", "b", nodes=64, log=log)
        async with service:
            # Every submit enqueues before either consumer first runs.
            responses = await asyncio.gather(
                *(
                    service.submit(_one_job(tenant_id, i))
                    for tenant_id in ("a", "b")
                    for i in range(1, 21)
                )
            )
        return service, policies, responses

    with faults_suppressed():
        service, policies, responses = asyncio.run(scenario())
    assert all(r.status == "ok" for r in responses)
    assert service.stats["on_loop"] == 40
    lead = 0
    for policy in log:
        lead += 1 if policy is policies["a"] else -1
        assert abs(lead) <= 1
    assert len(log) == 40 and lead == 0


def test_one_stall_does_not_strand_the_tenant_on_the_thread():
    """A 50 ms host stall prices the tenant off the loop; the worker's own
    measurements bring the estimate back down and the loop has it back."""

    async def scenario():
        service, policies = _probe_service("t", nodes=64)
        async with service:
            for i in range(1, 31):
                policies["t"].cost = 0.05 if i == 1 else 0.0
                assert (await service.submit(_one_job("t", i))).status == "ok"
        return threading.get_ident(), service, policies["t"].threads

    with faults_suppressed():
        loop_thread, service, threads = asyncio.run(scenario())
    on_loop = [thread == loop_thread for thread in threads]
    assert on_loop[0] and not on_loop[1]  # a fresh tenant is cheap; the stall
    assert all(on_loop[-10:])  # ... costs a bounded number of hops
    assert 1 <= service.stats["offloaded"] <= 20


def test_the_drain_request_of_a_trace_is_offloaded():
    """Each request of the trace is one cheap batch; the request that
    drains it is one batch per running job, priced as that many."""
    jobs = 32

    async def scenario():
        service, policies = _probe_service("t", nodes=jobs)
        policies["t"].cost = 0.0002
        async with service:
            for i in range(1, jobs + 1):  # all start at once, none finishes
                await service.submit(_one_job("t", i, runtime=HOUR + i))
            before = dict(service.stats)
            decided = len(policies["t"].threads)
            drain = await service.submit(
                DecisionRequest(tenant="t", now=3 * HOUR)
            )
        return (
            threading.get_ident(), before, service.stats, drain,
            policies["t"].threads[decided:],
        )

    with faults_suppressed():
        loop_thread, before, after, drain, threads = asyncio.run(scenario())
    assert drain.status == "ok" and len(drain.decisions) == jobs
    assert before["on_loop"] > before["offloaded"]  # one batch is cheap
    assert after["offloaded"] == before["offloaded"] + 1
    assert after["on_loop"] == before["on_loop"]
    assert len(threads) == jobs and loop_thread not in threads
