"""The resumable per-tenant incremental engine.

A :class:`TenantEngine` is one tenant's cluster, policy and in-flight
:class:`~repro.simulator.engine.LoopState`, driven one event batch at a
time through :meth:`Simulation.consume_batch` — the *same* loop body the
batch simulator runs.  That sharing is the whole design: a fault-free
tenant fed the arrivals of a trace produces decisions bit-identical to a
batch :meth:`Simulation.run` over that trace, and because the state is
held between requests, no request ever replays the trace.

The contract with clients is a **watermark**: each request carries the
tenant's current time ``now``, and once a request at ``now`` has been
processed the clock never moves back — a later submission at or before
the watermark is rejected (:class:`TenantError`) rather than silently
reordered, because in batch mode those events would have shared the
already-made decision.  Same-instant arrivals must therefore travel in
one request, mirroring how the event queue batches simultaneous events.

Completions are *internally generated* (a started job finishes at
``start + runtime``, exactly as in the simulator); a request's
``finished`` list is advance-and-confirm only — the engine checks the
named jobs really do complete by ``now`` and never takes the client's
word for a completion time.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable

from repro.metrics.timeseries import StateTimeSeries
from repro.service.api import Decision, DecisionRequest
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.engine import LoopState, Simulation
from repro.simulator.events import EventKind, EventQueue
from repro.simulator.job import Job, JobState
from repro.simulator.policy import RunningJob, SchedulingPolicy
from repro.util.timeunits import time_le

#: A degradation-ladder hook: same inputs as ``SchedulingPolicy.decide``,
#: but also reports which rung answered and whether that is a degraded
#: answer.  ``None`` means "consult the tenant's primary policy".
LadderFn = Callable[
    [float, "tuple[Job, ...]", "tuple[RunningJob, ...]", Cluster],
    "tuple[list[Job], str, bool]",
]

#: ``mode`` recorded when the primary policy answered directly.
PRIMARY_MODE = "policy"


class TenantError(ValueError):
    """A request violated the tenant contract; tenant state is untouched."""


class TenantEngine:
    """One tenant's resumable scheduling state.

    Not thread-safe and not async — the service serializes access per
    tenant (one queue consumer per tenant), which is also what keeps the
    decision sequence deterministic.
    """

    def __init__(
        self,
        tenant_id: str,
        policy: SchedulingPolicy,
        cluster_config: ClusterConfig | None = None,
        window: tuple[float, float] | None = None,
        record_timeseries: bool = False,
    ) -> None:
        self.tenant_id = tenant_id
        self.sim = Simulation.open_ended(
            policy,
            cluster_config=cluster_config,
            window=window,
            record_timeseries=record_timeseries,
        )
        self.loop_state = LoopState(
            events=EventQueue(),
            waiting=[],
            completed=[],
            timeseries=StateTimeSeries() if record_timeseries else None,
        )
        #: Every job ever submitted to this tenant, by id (ids are unique
        #: for the tenant's lifetime, exactly like within one workload).
        self.jobs: dict[int, Job] = {}
        #: The watermark: no event at or before this instant is accepted.
        self.decided_through: float = float("-inf")
        policy.reset()
        policy.runtime_source.reset()
        policy.on_simulation_begin()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def decision_count(self) -> int:
        return self.loop_state.decision_count

    @property
    def waiting_count(self) -> int:
        return len(self.loop_state.waiting)

    @property
    def running_count(self) -> int:
        return self.sim.cluster.running_count

    @property
    def completed_jobs(self) -> list[Job]:
        return self.loop_state.completed

    def events_due(self, now: float) -> int:
        """Queued events at or before ``now``: an upper bound on the event
        batches a request at ``now`` drains before its own arrivals."""
        return self.loop_state.events.count_through(now)

    def close(self) -> None:
        """Release policy-held resources (mirrors the batch loop's exit)."""
        self.sim.policy.on_simulation_end()

    # ------------------------------------------------------------------
    # Request validation (pure — raises before any state is mutated)
    # ------------------------------------------------------------------
    def validate_request(self, request: DecisionRequest) -> list[Job]:
        """Raise :class:`TenantError` unless ``request`` is acceptable;
        return the arrivals as the :class:`Job` objects that were checked.

        Everything is checkable up front: completions are internally
        generated, so a job's finish time is known the moment it starts
        and the ``finished`` confirmations can be validated before the
        clock moves.
        """
        now = request.now
        if time_le(now, self.decided_through):
            raise TenantError(
                f"tenant {self.tenant_id}: request at t={now} is at or "
                f"before the decided watermark t={self.decided_through}; "
                "same-instant events must share one request"
            )
        seen: set[int] = set()
        arrivals: list[Job] = []
        for spec in request.arrivals:
            if spec.job_id in self.jobs or spec.job_id in seen:
                raise TenantError(
                    f"tenant {self.tenant_id}: duplicate job id {spec.job_id}"
                )
            seen.add(spec.job_id)
            arrival = spec.to_job(now)
            if not self.sim.cluster.admits(arrival):
                raise TenantError(
                    f"tenant {self.tenant_id}: job {spec.job_id} "
                    f"(N={arrival.nodes}, R={arrival.requested_runtime}) "
                    "violates cluster limits"
                )
            arrivals.append(arrival)
        for job_id in request.finished:
            job = self.jobs.get(job_id)
            if job is None:
                raise TenantError(
                    f"tenant {self.tenant_id}: unknown finished job {job_id}"
                )
            if job.end_time is None:
                raise TenantError(
                    f"tenant {self.tenant_id}: job {job_id} has not started; "
                    "it cannot have finished"
                )
            if not time_le(job.end_time, now):
                raise TenantError(
                    f"tenant {self.tenant_id}: job {job_id} finishes at "
                    f"t={job.end_time}, after the request's t={now}"
                )
        return arrivals

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------
    def handle(
        self, request: DecisionRequest, decide: LadderFn | None = None
    ) -> list[Decision]:
        """Validate, ingest arrivals, advance to ``request.now``, confirm.

        Returns one :class:`Decision` per distinct event time drained.
        ``decide`` (the service's degradation ladder) overrides only the
        policy consultation; all state transitions stay the engine's.
        """
        arrivals = self.validate_request(request)
        now = request.now
        for job in arrivals:
            self.jobs[job.job_id] = job
            self.loop_state.events.push(now, EventKind.ARRIVAL, job)
        decisions = self.advance(now, decide=decide)
        for job_id in request.finished:
            job = self.jobs[job_id]
            if job.state is not JobState.COMPLETED:
                raise AssertionError(
                    f"tenant {self.tenant_id}: job {job_id} passed "
                    "confirmation but did not complete during advance"
                )
        self.decided_through = max(self.decided_through, now)
        return decisions

    def advance(
        self, now: float, decide: LadderFn | None = None
    ) -> list[Decision]:
        """Consume every pending event batch at or before ``now``.

        Events must be consumed in order (a completion releases the nodes
        a later arrival's decision sees), so advancing always drains the
        queue up to ``now`` — one decision per distinct event time,
        exactly like the batch loop.
        """
        decisions: list[Decision] = []
        st = self.loop_state
        while st.events:
            head = st.events.peek_time()
            if head is None or not time_le(head, now):
                break
            batch = st.events.pop_simultaneous()
            mode = PRIMARY_MODE
            degraded = False
            if decide is None:
                started = self.sim.consume_batch(st, batch)
            else:
                outcome: dict[str, object] = {}

                def _decide(
                    t: float,
                    waiting: tuple[Job, ...],
                    running: tuple[RunningJob, ...],
                    cluster: Cluster,
                ) -> list[Job]:
                    jobs, outcome["mode"], outcome["degraded"] = decide(
                        t, waiting, running, cluster
                    )
                    return jobs

                started = self.sim.consume_batch(st, batch, _decide)
                mode = str(outcome.get("mode", PRIMARY_MODE))
                degraded = bool(outcome.get("degraded", False))
            decisions.append(
                Decision(
                    seq=st.decision_count,
                    time=st.prev_time,
                    started=tuple(job.job_id for job in started),
                    mode=mode,
                    degraded=degraded,
                )
            )
            self.decided_through = max(self.decided_through, st.prev_time)
        return decisions

    # ------------------------------------------------------------------
    # Snapshot / restore (see repro.service.recovery for the disk format)
    # ------------------------------------------------------------------
    def snapshot_record(self) -> dict[str, object]:
        """The live state needed to rebuild this engine, as one record.

        Finished jobs are *not* in it — only how many there are: the
        recovery layer keeps them in the tenant's append-only log and
        hands the first ``completed_count`` of them back to
        :meth:`from_snapshot_record`.  So the record is built from, and as
        large as, what is live (queue, running set, event queue, policy),
        not what the tenant has ever seen.  It is pickled as a unit, which
        preserves the aliasing between the queue, the event queue's
        payloads and the cluster's running set; nothing live refers to a
        finished job, so nothing is lost by their absence.
        """
        return {
            "tenant_id": self.tenant_id,
            "simulation": self.sim,
            "state": dataclasses.replace(self.loop_state, completed=[]),
            "completed_count": len(self.loop_state.completed),
            "decided_through": self.decided_through,
        }

    @classmethod
    def from_snapshot_record(
        cls, record: dict[str, object], completed: list[Job]
    ) -> "TenantEngine":
        """Rebuild an engine from :meth:`snapshot_record` output plus the
        jobs it counted as finished, in the order they finished.

        A record of the wrong shape raises :class:`TypeError` (a missing
        key :class:`KeyError`), which the recovery scan treats like a torn
        file: skip it, fall back to an older snapshot.
        """
        sim = record["simulation"]
        state = record["state"]
        watermark = record["decided_through"]
        if not isinstance(sim, Simulation):
            raise TypeError("snapshot record does not hold a Simulation")
        if not isinstance(state, LoopState):
            raise TypeError("snapshot record does not hold a LoopState")
        if not isinstance(watermark, (int, float)):
            raise TypeError(f"snapshot record's watermark is {watermark!r}")
        if record["completed_count"] != len(completed):
            raise TypeError(
                f"snapshot record counts {record['completed_count']!r} "
                f"finished jobs, {len(completed)} were supplied"
            )
        engine = cls.__new__(cls)
        engine.tenant_id = str(record["tenant_id"])
        engine.sim = sim
        state.completed = completed
        engine.loop_state = state
        # Finished first, then live: a dict of the same jobs as the
        # uninterrupted engine's, not in its (arrival) order.
        engine.jobs = {
            job.job_id: job
            for job in itertools.chain(
                completed,
                state.waiting,
                sim.cluster.running_jobs,
                (event.payload for event in state.events),
            )
        }
        engine.decided_through = float(watermark)
        # The policy's mid-run state rode along in the snapshot, so no
        # reset — only re-acquire resources.
        sim.policy.on_simulation_begin()
        return engine

