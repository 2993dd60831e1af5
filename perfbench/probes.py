"""Timing proxies the benchmark installs around the program's layers.

Two kinds, both forwarding objects that live in ``perfbench`` only:

- :class:`ClockedPolicy` is the *client-side clock* of a batch replay: it
  reads the clock before and after each ``decide`` the simulator makes,
  exactly as the service client reads it around ``submit``, and then lets
  the pass's :class:`~perfbench.host.HostProbe` catch up.  It is on in
  every untraced pass, so ``latency_*`` and ``decisions_per_s`` always
  carry the same (two clock reads and one call) cost.
- :class:`TracedPolicy`, :class:`TracedSearcher` and the instance-level
  wrappers of :func:`trace_service` / :func:`trace_tenant` record spans
  into a :class:`~perfbench.spans.Tracer`; they are installed for the one
  traced pass only.

A tenant snapshot pickles the tenant's policy, so the traced proxies drop
their tracer (and anything that reaches spans) from their pickled state;
:func:`trace_tenant` re-attaches it to a restored tenant.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

from repro.service.service import DecisionService
from repro.simulator.cluster import Cluster
from repro.simulator.job import Job
from repro.simulator.policy import RunningJob, SchedulingPolicy

from perfbench.host import HostProbe
from perfbench.spans import Tracer

#: The layer replay keeps the inputs of every N-th searched decision.
SAMPLE_EVERY = 8


class _ForwardingPolicy(SchedulingPolicy):
    """Everything but ``decide`` goes straight to the wrapped policy."""

    def __init__(self, inner: SchedulingPolicy) -> None:
        self.inner = inner
        self.name = inner.name
        self.runtime_source = inner.runtime_source

    def __getattr__(self, name: str) -> Any:
        # ``stats``, ``searcher`` ... ; never during unpickling, when
        # ``inner`` is not there yet.
        if name.startswith("__") or name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)

    def on_start(self, job: Job, now: float) -> None:
        self.inner.on_start(job, now)

    def on_finish(self, job: Job, now: float) -> None:
        self.inner.on_finish(job, now)

    def on_simulation_begin(self) -> None:
        self.inner.on_simulation_begin()

    def on_simulation_end(self) -> None:
        self.inner.on_simulation_end()

    def reset(self) -> None:
        self.inner.reset()


class ClockedPolicy(_ForwardingPolicy):
    """Appends the wall seconds of every ``decide`` to ``durations``, and
    samples the host's speed between one ``decide`` and the next."""

    def __init__(
        self, inner: SchedulingPolicy, durations: list[float], probe: HostProbe
    ) -> None:
        super().__init__(inner)
        self.durations = durations
        self.probe = probe

    def decide(
        self,
        now: float,
        waiting: Sequence[Job],
        running: Sequence[RunningJob],
        cluster: Cluster,
    ) -> list[Job]:
        t0 = time.perf_counter()
        out = self.inner.decide(now, waiting, running, cluster)
        self.durations.append(time.perf_counter() - t0)
        self.probe.sample()
        return out


class TracedSearcher:
    """Forwarding object put in ``policy.searcher``: one span per search."""

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.last_result: Any = None

    def __getattr__(self, name: str) -> Any:
        if name.startswith("__") or name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)

    def __getstate__(self) -> dict[str, Any]:
        return {"inner": self.inner, "tracer": None, "last_result": None}

    def search(self, problem: Any) -> Any:
        span = self.tracer.open("search.search")
        counts = None
        try:
            result = self.last_result = self.inner.search(problem)
            counts = {
                "nodes": result.nodes_visited,
                "limit_hit": result.limit_hit,
                "improved": result.improved_after_first,
            }
            return result
        finally:
            self.tracer.close(span, counts)


class TracedPolicy(_ForwardingPolicy):
    """One span per ``decide``; the span's layer is the policy's own.

    A search policy also gets a :class:`TracedSearcher`, and every
    :data:`SAMPLE_EVERY`-th decision that searched leaves its inputs and
    result in ``tracer.samples`` for the layer replay.
    """

    def __init__(self, inner: SchedulingPolicy, tracer: Tracer) -> None:
        super().__init__(inner)
        self.tracer = tracer
        self.searched = 0
        searcher = getattr(inner, "searcher", None)
        self.span_name = "backfill.decide" if searcher is None else "scheduler.decide"
        if searcher is not None:
            inner.searcher = TracedSearcher(searcher, tracer)  # type: ignore[attr-defined]

    def __getstate__(self) -> dict[str, Any]:
        return {**self.__dict__, "tracer": None}

    def attach(self, tracer: Tracer) -> None:
        """Give a restored (unpickled) proxy pair its tracer back."""
        self.tracer = tracer
        searcher = getattr(self.inner, "searcher", None)
        if searcher is not None:
            searcher.tracer = tracer

    def decide(
        self,
        now: float,
        waiting: Sequence[Job],
        running: Sequence[RunningJob],
        cluster: Cluster,
    ) -> list[Job]:
        tracer = self.tracer
        span = tracer.open(self.span_name)
        try:
            out = self.inner.decide(now, waiting, running, cluster)
        finally:
            tracer.close(span, {"queue_len": len(waiting)})
        if waiting and self.span_name == "scheduler.decide":
            self.searched += 1
            if self.searched % SAMPLE_EVERY == 0:
                tracer.samples.append(
                    {
                        "span": span,
                        "policy": self.inner,
                        "now": now,
                        "waiting": waiting,
                        "running": running,
                        "capacity": cluster.capacity,
                        "result": self.inner.searcher.last_result,  # type: ignore[attr-defined]
                    }
                )
        return out


def trace_service(service: DecisionService, tracer: Tracer) -> None:
    """Instance-level span wrapper on ``service.snapshot_now``."""
    snapshot_now = service.snapshot_now

    def traced_snapshot_now(tenant_id: str) -> Any:
        span = tracer.begin("recovery.snapshot", parent=tracer.inflight.get(tenant_id))
        path = None
        try:
            path = snapshot_now(tenant_id)
            return path
        finally:
            tracer.end(span, {"bytes": 0 if path is None else path.stat().st_size})

    service.snapshot_now = traced_snapshot_now  # type: ignore[method-assign]


def trace_tenant(service: DecisionService, tenant_id: str, tracer: Tracer) -> None:
    """Instance-level span wrappers on one registered tenant's
    ``TenantEngine.handle`` and ``DecisionLadder.decide``.

    ``handle`` runs on an executor thread, so its span names the tenant's
    open client request as its cause; the ladder, the policy and the
    search nest under it through that thread's stack.
    """
    engine = service.tenant(tenant_id)
    ladder = service._require(tenant_id).ladder  # no public accessor
    engine.sim.policy.attach(tracer)  # type: ignore[attr-defined]
    handle = engine.handle
    ladder_decide = ladder.decide

    def traced_handle(request: Any, decide: Any = None) -> Any:
        span = tracer.open("tenant.handle", parent=tracer.inflight[tenant_id])
        decisions: list[Any] = []
        try:
            decisions = handle(request, decide=decide)
            return decisions
        finally:
            tracer.close(span, {"decisions": len(decisions)})

    def traced_ladder_decide(*args: Any, **kwargs: Any) -> Any:
        span = tracer.open("executor.decide")
        mode = None
        try:
            jobs, mode, degraded = ladder_decide(*args, **kwargs)
            return jobs, mode, degraded
        finally:
            tracer.close(span, {"mode": mode})

    engine.handle = traced_handle  # type: ignore[method-assign]
    ladder.decide = traced_ladder_decide  # type: ignore[method-assign]
