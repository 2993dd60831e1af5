"""The six workloads: their inputs, one pass over them, and its check.

Inputs come from ``--seed`` alone.  Each trace is one of the paper's
calibrated months, drawn once from :data:`BASE_SEED`, with every submit
time then shifted by a seeded draw from ``[0, JITTER_SECONDS)``.  The
month draw is held fixed because the *difficulty* of a month (how deep
its backlog gets) is itself random: over independent month draws the
decision rate spreads by 10% (``batch_L1k``) to 67% (``batch_L100k``)
between its quartiles, which would bury any change this benchmark is
meant to resolve.  The jitter is enough to reorder arrivals and change
schedules (every digest differs between seeds), not enough to change
what kind of month it is.

A *pass* is one complete replay of the workload's inputs.  Every pass
returns the schedule digest of each trace it replayed; :mod:`perfbench
.runner` compares them with the first pass, with a second code path
(another engine, or batch against service) and, at the default seed, with
``expected.json``.
"""

from __future__ import annotations

import asyncio
import collections
import hashlib
import itertools
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from repro.backfill import fcfs_backfill, lxf_backfill
from repro.core.scheduler import SearchSchedulingPolicy, make_policy
from repro.service.api import DecisionRequest, JobSpec, TenantSLO
from repro.service.service import DecisionService, ServiceConfig
from repro.simulator.engine import Simulation
from repro.simulator.job import Job
from repro.simulator.policy import SchedulingPolicy
from repro.util.timeunits import time_eq
from repro.workloads import Workload, generate_month, scale_to_load

from perfbench.host import HostProbe
from perfbench.probes import (
    ClockedPolicy,
    TracedPolicy,
    trace_service,
    trace_tenant,
)
from perfbench.spans import Tracer

#: The month draw every run shares (the seed of every committed
#: ``BENCH_*.json`` and of EXPERIMENTS.md).
BASE_SEED = 2005
#: Upper end of the seeded shift added to each submit time.
JITTER_SECONDS = 15.0
#: Response deadline of the service workloads; never binding (p99 is a
#: few ms), so a late or degraded response is a failure, not a mode.
DEADLINE_SECONDS = 2.0

PolicyFactory = Callable[[], SchedulingPolicy]


def jittered_month(
    month: str,
    seed: int,
    scale: float,
    base_seed: int = BASE_SEED,
    load: float | None = None,
) -> Workload:
    """One calibrated month with seeded submit-time jitter (module docstring)."""
    trace = generate_month(month, base_seed, scale)
    if load is not None:
        trace = scale_to_load(trace, load)
    rng = np.random.default_rng([seed, base_seed])
    jobs = trace.fresh_jobs()
    for job, shift in zip(jobs, rng.uniform(0.0, JITTER_SECONDS, len(jobs))):
        job.submit_time += float(shift)
    return trace.with_jobs(jobs, perfbench_seed=seed)


def schedule_digest(jobs: Sequence[Job], decisions: int) -> str:
    """sha256 over every job's exact start and end, plus the decision count."""
    lines = sorted(
        f"{j.job_id}:{j.start_time.hex()}:{j.end_time.hex()}"  # type: ignore[union-attr]
        for j in jobs
    )
    lines.append(f"decisions:{decisions}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def check_feasible(jobs: Sequence[Job], trace: Workload) -> str | None:
    """Why ``jobs`` is not a valid schedule of ``trace``, or ``None``.

    Independent of any scheduler: every job of the trace ran once, for its
    runtime, not before it was submitted, and the machine was never
    over-committed.
    """
    if sorted(j.job_id for j in jobs) != sorted(j.job_id for j in trace.jobs):
        return "the completed jobs are not the trace's jobs"
    events: list[tuple[float, int]] = []
    for j in jobs:
        if j.start_time is None or j.end_time is None:
            return f"job {j.job_id} never ran"
        if j.start_time < j.submit_time - 1e-9:
            return f"job {j.job_id} started before it was submitted"
        if j.end_time != j.start_time + j.runtime:
            return f"job {j.job_id} did not run for its runtime"
        events.append((j.start_time, j.nodes))
        events.append((j.end_time, -j.nodes))
    used = 0
    for _, delta in sorted(events):  # releases sort before starts at a tie
        used += delta
        if used > trace.cluster.nodes:
            return "more nodes in use than the machine has"
    return None


@dataclass
class PassResult:
    """What one pass did, as the client saw it."""

    decisions: int
    #: Seconds inside ``Simulation.run`` (batch), or from the first submit
    #: to the last response (service).
    wall: float
    #: Seconds of each scheduling answer: a ``decide`` call (batch) or a
    #: submit -> response round trip (service, tenant by tenant).  Every
    #: pass of a run answers the same questions in this same order.
    latencies: list[float]
    #: trace label -> schedule digest.
    digests: dict[str, str]
    #: trace label -> completed jobs, for the feasibility check and
    #: ``metrics.*``.
    jobs: dict[str, list[Job]]
    attempted: int
    failed: int
    counters: "collections.Counter[str]" = field(default_factory=collections.Counter)
    #: The host's speed while ``wall`` was on the clock (untraced passes).
    probe: HostProbe | None = None


# ----------------------------------------------------------------------
# Batch replay
# ----------------------------------------------------------------------
@dataclass
class Leg:
    """One ``Simulation.run``: a trace under a policy."""

    label: str
    trace: Workload
    policy: PolicyFactory


@dataclass
class BatchInputs:
    legs: list[Leg]
    #: A second engine that must produce the same schedules, if any.
    cross_check: PolicyFactory | None = None

    @property
    def traces(self) -> dict[str, Workload]:
        """Label of each replayed schedule -> the trace it is a schedule of."""
        return {leg.label: leg.trace for leg in self.legs}

    def run_pass(self, tracer: Tracer | None = None, workdir: Path | None = None) -> PassResult:
        return batch_pass(self.legs, tracer)


def batch_pass(legs: Sequence[Leg], tracer: Tracer | None = None) -> PassResult:
    """Replay every leg once; only ``Simulation.run`` is on the clock."""
    out = PassResult(0, 0.0, [], {}, {}, attempted=1, failed=0)
    root = tracer.open("harness.pass") if tracer is not None else None
    probe = out.probe = HostProbe() if tracer is None else None
    for leg in legs:
        policy = leg.policy()
        wrapped: SchedulingPolicy
        if probe is not None:
            wrapped = ClockedPolicy(policy, out.latencies, probe)
        else:
            wrapped = TracedPolicy(policy, tracer)  # type: ignore[arg-type]
        sim = Simulation(
            leg.trace.fresh_jobs(), wrapped, leg.trace.cluster, window=leg.trace.window
        )
        span = tracer.open("simulator.run") if tracer is not None else None
        if probe is not None:
            probe.start()
        t0 = time.perf_counter()
        result = sim.run()
        out.wall += time.perf_counter() - t0
        if probe is not None:
            probe.stop()
        if tracer is not None:
            tracer.close(span, {"decisions": result.decision_count})  # type: ignore[arg-type]
        out.decisions += result.decision_count
        out.digests[leg.label] = schedule_digest(result.jobs, result.decision_count)
        out.jobs[leg.label] = result.jobs
        out.counters["backfilled_starts"] += policy.stats.get("backfilled_starts", 0)  # type: ignore[attr-defined]
    if tracer is not None:
        tracer.close(root)  # type: ignore[arg-type]
        out.latencies = [
            s.duration for s in tracer.spans if s.name.endswith(".decide")
        ]
    return out


# ----------------------------------------------------------------------
# Service replay
# ----------------------------------------------------------------------
@dataclass
class TenantInput:
    tenant_id: str
    trace: Workload
    #: One request per distinct arrival instant, then a final drain.
    requests: list[DecisionRequest]
    #: Digest of a batch ``Simulation.run`` over the same trace.
    oracle_digest: str


def _search_policy(_tenant_id: str = "") -> SchedulingPolicy:
    return make_policy("dds", "lxf", node_limit=1000)


def tenant_input(tenant_id: str, trace: Workload) -> TenantInput:
    """Requests that replay ``trace``, and the batch oracle they must match."""
    oracle = Simulation(
        trace.fresh_jobs(), _search_policy(), trace.cluster, window=trace.window
    ).run()
    groups: list[list[Job]] = []
    for job in trace.jobs:  # sorted by (submit_time, job_id)
        if groups and time_eq(job.submit_time, groups[-1][0].submit_time):
            groups[-1].append(job)
        else:
            groups.append([job])
    requests = [
        DecisionRequest(
            tenant=tenant_id,
            now=group[0].submit_time,
            arrivals=tuple(JobSpec.from_job(j) for j in group),
        )
        for group in groups
    ]
    requests.append(DecisionRequest(tenant=tenant_id, now=oracle.sim_end_time + 1.0))
    return TenantInput(
        tenant_id,
        trace,
        requests,
        schedule_digest(oracle.jobs, oracle.decision_count),
    )


@dataclass
class ServiceInputs:
    tenants: list[TenantInput]
    #: Snapshot every 64 decisions, crash half-way, restore, re-send.
    crash: bool = False

    @property
    def traces(self) -> dict[str, Workload]:
        return {t.tenant_id: t.trace for t in self.tenants}

    def run_pass(self, tracer: Tracer | None = None, workdir: Path | None = None) -> PassResult:
        return asyncio.run(service_pass(self, tracer, workdir))


def _response_failed(response: Any) -> bool:
    return (
        response.status != "ok"
        or response.degraded
        or response.deadline_exceeded
        or any(d.mode != "search" for d in response.decisions)
    )


async def _drive(
    service: DecisionService,
    tenant: TenantInput,
    requests: Sequence[DecisionRequest],
    latencies: list[float],
    out: PassResult,
    tracer: Tracer | None,
    ops: "itertools.count[int]",
) -> None:
    """Closed loop: the next request goes out when the last is answered,
    because the watermark contract makes a resource manager wait."""
    driver = tracer.begin("harness.driver") if tracer is not None else None
    for request in requests:
        if tracer is not None:
            span = tracer.begin("service.request", parent=driver, op=next(ops))
            tracer.inflight[tenant.tenant_id] = span
        t0 = time.perf_counter()
        response = await service.submit(request)
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end(span, {"decisions": len(response.decisions)})
        else:
            out.probe.sample()  # type: ignore[union-attr]
        out.decisions += len(response.decisions)
        out.attempted += 1
        out.failed += _response_failed(response)
    if tracer is not None:
        tracer.end(driver)  # type: ignore[arg-type]


def _start_service(root: Path | None, tracer: Tracer | None) -> DecisionService:
    config = ServiceConfig(
        default_slo=TenantSLO(deadline_seconds=DEADLINE_SECONDS),
        snapshot_root=root,
    )
    if tracer is None:
        factory = _search_policy
    else:
        def factory(tenant_id: str) -> SchedulingPolicy:
            return TracedPolicy(_search_policy(), tracer)
    service = DecisionService(factory, config=config)
    if tracer is not None:
        trace_service(service, tracer)
    return service


async def service_pass(
    inputs: ServiceInputs, tracer: Tracer | None, workdir: Path | None
) -> PassResult:
    """Both tenants replay their trace concurrently through one service."""
    out = PassResult(0, 0.0, [], {}, {}, attempted=0, failed=0)
    ops = itertools.count()
    latencies: list[list[float]] = [[] for _ in inputs.tenants]
    root = None
    if inputs.crash:
        assert workdir is not None, "the snapshot workload needs a directory"
        root = workdir / "snapshots"
        shutil.rmtree(root, ignore_errors=True)

    def register(service: DecisionService) -> None:
        for tenant in inputs.tenants:
            service.register_tenant(
                tenant.tenant_id,
                cluster_config=tenant.trace.cluster,
                window=tenant.trace.window,
            )
            if tracer is not None:
                trace_tenant(service, tenant.tenant_id, tracer)

    async def replay(service: DecisionService, slices: Sequence[Sequence[DecisionRequest]]) -> None:
        await asyncio.gather(
            *(
                _drive(service, tenant, requests, mine, out, tracer, ops)
                for tenant, requests, mine in zip(inputs.tenants, slices, latencies)
            )
        )

    service = _start_service(root, tracer)
    register(service)
    probe = out.probe = HostProbe() if tracer is None else None
    if probe is not None:
        probe.start()
    t0 = time.perf_counter()
    if not inputs.crash:
        await replay(service, [t.requests for t in inputs.tenants])
    else:
        halves = [len(t.requests) // 2 for t in inputs.tenants]
        await replay(service, [t.requests[:h] for t, h in zip(inputs.tenants, halves)])
        # The crash: no final snapshot, so the tenants lose whatever they
        # decided since their last periodic one.
        await service.close(final_snapshot=False)
        out.counters["snapshots"] = service.stats["snapshots"]
        service = _start_service(root, tracer)
        span = tracer.begin("recovery.restore") if tracer is not None else None
        register(service)
        if tracer is not None:
            tracer.end(span)  # type: ignore[arg-type]
        if service.stats["recovered_tenants"] != len(inputs.tenants):
            raise RuntimeError("a tenant came back without its snapshot")
        resent = []
        for tenant, half in zip(inputs.tenants, halves):
            through = service.tenant(tenant.tenant_id).decided_through
            rest = [r for r in tenant.requests if r.now > through]
            # Requests answered before the crash that have to be made again.
            out.counters["replayed_requests"] += len(rest) - (len(tenant.requests) - half)
            resent.append(rest)
        await replay(service, resent)
    out.wall = time.perf_counter() - t0
    if probe is not None:
        probe.stop()
    out.latencies = [seconds for mine in latencies for seconds in mine]
    out.counters["snapshots"] += service.stats["snapshots"]

    for tenant in inputs.tenants:
        engine = service.tenant(tenant.tenant_id)
        digest = schedule_digest(engine.completed_jobs, engine.decision_count)
        out.digests[tenant.tenant_id] = digest
        out.jobs[tenant.tenant_id] = engine.completed_jobs
        if digest != tenant.oracle_digest:
            out.failed = out.attempted  # nothing this service said can be trusted
    await service.close(final_snapshot=False)
    if root is not None:
        shutil.rmtree(root, ignore_errors=True)
    return out


# ----------------------------------------------------------------------
# The workload table
# ----------------------------------------------------------------------
def _full_months(seed: int, scale: float) -> list[Workload]:
    # The paper's two stress months: wide-job demand (2003-07) and the
    # deepest backlog (2004-01, queue to 63).
    return [jittered_month(m, seed, scale) for m in ("2003-07", "2004-01")]


def _batch_L1k(seed: int, scale: float) -> BatchInputs:
    policy = lambda: make_policy("dds", "lxf", node_limit=1000)  # noqa: E731
    return BatchInputs(
        [Leg(t.name, t, policy) for t in _full_months(seed, scale)]
    )


def _batch_L100k(seed: int, scale: float) -> BatchInputs:
    trace = jittered_month("2004-01", seed, 0.2 * scale, load=0.9)
    policy = lambda: make_policy("dds", "lxf", node_limit=100_000)  # noqa: E731
    return BatchInputs([Leg(trace.name, trace, policy)])


def _batch_backfill(seed: int, scale: float) -> BatchInputs:
    return BatchInputs(
        [
            Leg(f"{t.name}/{policy().name}", t, policy)
            for t in _full_months(seed, scale)
            for policy in (fcfs_backfill, lxf_backfill)
        ]
    )


def _batch_purepy_L1k(seed: int, scale: float) -> BatchInputs:
    trace = jittered_month("2003-07", seed, 0.25 * scale)
    policy = lambda: SearchSchedulingPolicy(  # noqa: E731
        "dds", "lxf", node_limit=1000, engine="fast"
    )
    compiled = lambda: SearchSchedulingPolicy(  # noqa: E731
        "dds", "lxf", node_limit=1000, engine="compiled"
    )
    return BatchInputs([Leg(trace.name, trace, policy)], cross_check=compiled)


def _service(seed: int, scale: float, crash: bool) -> ServiceInputs:
    # Two tenants = the two cores of the reference box; more would only
    # queue behind the interpreter lock.
    return ServiceInputs(
        [
            tenant_input(
                f"tenant-{i}",
                jittered_month("2003-07", seed, scale, base_seed=BASE_SEED + i),
            )
            for i in range(2)
        ],
        crash=crash,
    )


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    build: Callable[[int, float], "BatchInputs | ServiceInputs"]
    #: Its threads sleep and wake each other, so the run keeps the CPUs
    #: from idling (:func:`perfbench.host.keep_awake`).
    crosses_threads: bool = False


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "batch_L1k",
            "The paper's headline setting (DDS/lxf/dynB, L=1K, two stress months): kernel, "
            "decide marshalling and simulator loop all weigh in, so any layer's win shows.",
            _batch_L1k,
        ),
        WorkloadSpec(
            "batch_L100k",
            "Fig. 6's top budget on January 2004 at load 0.9: over 95% kernel time, so a "
            "kernel change shows here and an outer-layer change must not.",
            _batch_L100k,
        ),
        WorkloadSpec(
            "batch_backfill",
            "FCFS- and LXF-backfill on the same months: no search at all, the bypass for "
            "kernel and marshalling changes and where a simulator-loop change shows most.",
            _batch_backfill,
        ),
        WorkloadSpec(
            "batch_purepy_L1k",
            "The pure-python fast engine every install without a compiler runs: same kernel "
            "layer, other implementation, so a gain for one that costs the other shows.",
            _batch_purepy_L1k,
        ),
        WorkloadSpec(
            "service_replay",
            "Two tenants replay July 2003 through DecisionService in a closed loop: what the "
            "service adds on top of the same decisions batch_L1k makes; no snapshots.",
            lambda seed, scale: _service(seed, scale, crash=False),
            crosses_threads=True,
        ),
        WorkloadSpec(
            "service_snapshot",
            "The same traffic with snapshots every 64 decisions, a crash half-way and a "
            "restore: the write side of the service, which must not move service_replay.",
            lambda seed, scale: _service(seed, scale, crash=True),
            crosses_threads=True,
        ),
    )
}
