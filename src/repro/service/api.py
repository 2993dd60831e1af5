"""Wire types of the decision service.

Everything the service accepts or returns is a plain dataclass with a
``to_dict``/``from_dict`` pair over JSON-safe primitives, so the same
types serve the in-process API (tests, the load generator) and the
JSONL-over-stdio transport of ``repro serve``.  Nothing here imports the
engine or asyncio — these are the contract, not the mechanism.

The central guarantee is encoded in :class:`DecisionResponse`: every
request gets exactly one response, its ``status`` says what happened
(``ok`` / ``shed`` / ``rejected`` / ``error``), and when a decision was
produced by anything weaker than the tenant's primary policy the response
carries ``degraded=True`` plus the ladder rung in ``mode`` — a degraded
answer is never silently passed off as a full one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.simulator.job import Job

#: Response statuses (the closed set; anything else is a transport bug).
STATUSES: tuple[str, ...] = ("ok", "shed", "rejected", "error")


@dataclass(frozen=True)
class JobSpec:
    """A job as submitted over the wire.

    Carries the *actual* runtime because the service plays the same role
    as the batch simulator's trace: completions are generated internally
    at ``start + runtime``.  Which runtime the scheduler is allowed to
    see (``R* = T`` vs ``R* = R``) remains the policy's runtime-source
    decision, exactly as in batch runs.
    """

    job_id: int
    nodes: int
    runtime: float
    requested_runtime: float | None = None
    user: str | None = None

    def to_job(self, submit_time: float) -> Job:
        """Materialize the engine-side :class:`Job` arriving at ``submit_time``."""
        return Job(
            job_id=self.job_id,
            submit_time=submit_time,
            nodes=self.nodes,
            runtime=self.runtime,
            requested_runtime=self.requested_runtime,
            user=self.user,
        )

    @classmethod
    def from_job(cls, job: Job) -> "JobSpec":
        return cls(
            job_id=job.job_id,
            nodes=job.nodes,
            runtime=job.runtime,
            requested_runtime=job.requested_runtime,
            user=job.user,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "nodes": self.nodes,
            "runtime": self.runtime,
            "requested_runtime": self.requested_runtime,
            "user": self.user,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        return cls(
            job_id=int(data["job_id"]),
            nodes=int(data["nodes"]),
            runtime=float(data["runtime"]),
            requested_runtime=(
                None
                if data.get("requested_runtime") is None
                else float(data["requested_runtime"])
            ),
            user=data.get("user"),
        )


@dataclass(frozen=True)
class TenantSLO:
    """Per-tenant service-level objective.

    ``deadline_seconds`` bounds the wall-clock latency of one decision;
    the ladder degrades as the remaining budget shrinks.
    ``queue_limit`` bounds the tenant's pending-request queue (admission
    control); ``max_retries`` bounds intake retries on transient faults.
    """

    deadline_seconds: float = 2.0
    queue_limit: int = 64
    max_retries: int = 3

    def __post_init__(self) -> None:
        if self.deadline_seconds <= 0:
            raise ValueError(
                f"deadline_seconds must be > 0, got {self.deadline_seconds}"
            )
        if self.queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "deadline_seconds": self.deadline_seconds,
            "queue_limit": self.queue_limit,
            "max_retries": self.max_retries,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TenantSLO":
        return cls(
            deadline_seconds=float(data.get("deadline_seconds", 2.0)),
            queue_limit=int(data.get("queue_limit", 64)),
            max_retries=int(data.get("max_retries", 3)),
        )


@dataclass(frozen=True)
class DecisionRequest:
    """One tenant event batch: advance the clock to ``now``, decide.

    ``arrivals`` are new submissions at time ``now`` (the tenant engine
    rejects a request whose ``now`` is not strictly after the last decided
    instant — the watermark contract, see ``docs/service.md``).
    ``finished`` lists job ids the client believes completed by ``now``;
    the engine *confirms* them against its own completion events (it never
    takes the client's word for a completion time).  A request with no
    arrivals and no confirmations is a pure clock advance: it drains
    decisions for every internal event up to and including ``now``.
    """

    tenant: str
    now: float
    arrivals: tuple[JobSpec, ...] = ()
    finished: tuple[int, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "tenant": self.tenant,
            "now": self.now,
            "arrivals": [spec.to_dict() for spec in self.arrivals],
            "finished": list(self.finished),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DecisionRequest":
        return cls(
            tenant=str(data["tenant"]),
            now=float(data["now"]),
            arrivals=tuple(
                JobSpec.from_dict(spec) for spec in data.get("arrivals", ())
            ),
            finished=tuple(int(j) for j in data.get("finished", ())),
        )


@dataclass(frozen=True)
class Decision:
    """One engine decision: at simulation time ``time``, start ``started``.

    A single request can yield several decisions (one per distinct event
    time drained), each numbered by the tenant's monotonically increasing
    decision sequence.  ``mode`` names the ladder rung that produced it
    (``search``, ``anytime``, ``heuristic``, ``noop``) and
    ``degraded`` is True whenever the rung is weaker than the tenant's
    primary policy.
    """

    seq: int
    time: float
    started: tuple[int, ...]
    mode: str
    degraded: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "time": self.time,
            "started": list(self.started),
            "mode": self.mode,
            "degraded": self.degraded,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Decision":
        return cls(
            seq=int(data["seq"]),
            time=float(data["time"]),
            started=tuple(int(j) for j in data["started"]),
            mode=str(data["mode"]),
            degraded=bool(data["degraded"]),
        )


@dataclass(frozen=True)
class DecisionResponse:
    """The service's answer to one :class:`DecisionRequest`.

    - ``ok``: the request was processed; ``decisions`` holds every
      decision made while draining up to ``request.now``.
    - ``shed``: admission control dropped the request at the door
      (queue full under ``try_submit``); the tenant state is untouched
      and the client should retry later.
    - ``rejected``: the request violated the tenant contract (stale
      watermark, duplicate job id, job over cluster limits, unknown
      finished id); the tenant state is untouched.
    - ``error``: intake faults exhausted the retry budget.

    ``degraded`` is the OR over ``decisions`` — a cheap flag for clients
    that only care whether the full policy answered.
    """

    tenant: str
    status: str
    decisions: tuple[Decision, ...] = ()
    degraded: bool = False
    latency_seconds: float = 0.0
    deadline_seconds: float = 0.0
    deadline_exceeded: bool = False
    error: str | None = None

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(
                f"status must be one of {STATUSES}, got {self.status!r}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "tenant": self.tenant,
            "status": self.status,
            "decisions": [d.to_dict() for d in self.decisions],
            "degraded": self.degraded,
            "latency_seconds": self.latency_seconds,
            "deadline_seconds": self.deadline_seconds,
            "deadline_exceeded": self.deadline_exceeded,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DecisionResponse":
        return cls(
            tenant=str(data["tenant"]),
            status=str(data["status"]),
            decisions=tuple(
                Decision.from_dict(d) for d in data.get("decisions", ())
            ),
            degraded=bool(data.get("degraded", False)),
            latency_seconds=float(data.get("latency_seconds", 0.0)),
            deadline_seconds=float(data.get("deadline_seconds", 0.0)),
            deadline_exceeded=bool(data.get("deadline_exceeded", False)),
            error=data.get("error"),
        )
