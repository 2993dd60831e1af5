"""Scheduling-policy interface.

A policy is consulted at every decision point (job arrival or departure) and
answers one question: *which waiting jobs start right now?*  It never starts
jobs in the future — reservations and planned schedules are internal policy
state that is recomputed at the next decision point, exactly as in the
paper's simulator.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.simulator.cluster import Cluster
from repro.simulator.job import Job

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.predict.source import RuntimeSource


@dataclass(frozen=True)
class RunningJob:
    """Policy-visible view of a running job.

    ``release_time`` is when the *scheduler believes* the job's nodes come
    back: actual end time when planning with actual runtimes (R* = T), or
    ``start + R`` when planning with requested runtimes (R* = R).  The
    engine computes it so every policy plans against the same information.
    """

    job: Job
    release_time: float

    @property
    def nodes(self) -> int:
        return self.job.nodes


class SchedulingPolicy(abc.ABC):
    """Base class for all scheduling policies.

    Subclasses implement :meth:`decide`.  The engine guarantees:

    - ``waiting`` contains every queued job (state WAITING), in submit order;
    - ``running`` describes every running job with its believed release time;
    - any job returned must fit in the currently free nodes (the engine
      re-validates and raises otherwise, since a policy bug here would
      silently corrupt results).
    """

    #: Human-readable policy name used in reports, e.g. ``"DDS/lxf/dynB"``.
    name: str = "policy"

    #: How the policy resolves planning runtimes (the paper's R*): actual
    #: (R* = T), requested (R* = R), or a predictor.  The engine reads it
    #: to compute ``RunningJob.release_time`` and to feed completions back
    #: to learning sources.  Concrete policies set this in ``__init__``
    #: via :func:`repro.predict.source.resolve_runtime_source`; the class
    #: default (actual runtimes, set below) covers minimal policies that
    #: never plan into the future.
    runtime_source: "RuntimeSource"

    @property
    def use_actual_runtime(self) -> bool:
        """Whether the policy plans with exact runtimes (R* = T)."""
        return self.runtime_source.is_actual

    def runtime_of(self, job: Job) -> float:
        """The planning runtime R* for ``job``."""
        return self.runtime_source.of(job)

    @abc.abstractmethod
    def decide(
        self,
        now: float,
        waiting: Sequence[Job],
        running: Sequence[RunningJob],
        cluster: Cluster,
    ) -> list[Job]:
        """Return the subset of ``waiting`` to start at time ``now``.

        The returned jobs must be mutually feasible: their total node demand
        may not exceed the free nodes.
        """

    def on_start(self, job: Job, now: float) -> None:
        """Hook: the engine started ``job`` at ``now``.  Default: no-op."""

    def on_finish(self, job: Job, now: float) -> None:
        """Hook: ``job`` completed at ``now``.  Default: no-op."""

    def on_simulation_begin(self) -> None:
        """Hook: a simulation is about to run its event loop.

        Policies acquire expensive per-run resources here, so the cost
        lands before the first decision, not inside it.  Default: no-op.
        """

    def on_simulation_end(self) -> None:
        """Hook: the event loop finished (or raised).  Always called when
        :meth:`on_simulation_begin` was.  Default: no-op."""

    def reset(self) -> None:
        """Clear any per-run state so a policy object can be reused."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


# Class-level default: plan with actual runtimes.  Imported at the bottom
# to keep the typing-only import above and the runtime import apart.
from repro.predict.source import ActualRuntimeSource as _ActualRuntimeSource  # noqa: E402

SchedulingPolicy.runtime_source = _ActualRuntimeSource()
