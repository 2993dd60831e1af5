"""cProfile attribution for a slice of a simulation run.

``repro profile`` answers "where does a scheduling decision spend its
time?" — the tool for deciding what to move into the compiled kernel
next (see ``docs/performance.md``).  Profiling a whole month mixes
thousands of decisions with workload generation and metric collection;
profiling a *slice* — the first N decision points of a real run — keeps
the collection window on the per-decision hot path while still
exercising genuine queue states rather than a synthetic loop.

The slice is cut with a wrapper policy that counts decision points and
raises :class:`SliceComplete` when the budget is spent; the simulation's
normal cleanup hooks still run (the engine guarantees
``on_simulation_end``), and the profiler stops on the way out.
"""

from __future__ import annotations

import cProfile
from typing import Sequence

from repro.simulator.cluster import Cluster
from repro.simulator.job import Job
from repro.simulator.policy import RunningJob, SchedulingPolicy
from repro.workloads.trace import Workload


class SliceComplete(Exception):
    """Raised by the slicing wrapper once N decisions have been profiled."""


class _SlicedPolicy(SchedulingPolicy):
    """Forwarding wrapper that stops the run after ``max_decisions``.

    The budget check happens *before* the inner ``decide`` so exactly
    ``max_decisions`` decisions execute — the raise replaces decision
    N+1, it never truncates decision N.
    """

    def __init__(self, inner: SchedulingPolicy, max_decisions: int) -> None:
        self._inner = inner
        self._max = max_decisions
        self.decisions = 0
        self.name = inner.name
        self.runtime_source = inner.runtime_source

    def decide(
        self,
        now: float,
        waiting: Sequence[Job],
        running: Sequence[RunningJob],
        cluster: Cluster,
    ) -> list[Job]:
        if self.decisions >= self._max:
            raise SliceComplete
        self.decisions += 1
        return self._inner.decide(now, waiting, running, cluster)

    def on_start(self, job: Job, now: float) -> None:
        self._inner.on_start(job, now)

    def on_finish(self, job: Job, now: float) -> None:
        self._inner.on_finish(job, now)

    def on_simulation_begin(self) -> None:
        self._inner.on_simulation_begin()

    def on_simulation_end(self) -> None:
        self._inner.on_simulation_end()

    def reset(self) -> None:
        self.decisions = 0
        self._inner.reset()


def profile_decisions(
    workload: Workload, policy: SchedulingPolicy, decisions: int
) -> tuple[cProfile.Profile, int]:
    """cProfile the first ``decisions`` decision points of a run.

    Returns the loaded profiler and the number of decisions actually
    executed (fewer than requested when the workload drains first).
    """
    from repro.simulator.engine import Simulation

    if decisions < 1:
        raise ValueError("decisions must be >= 1")
    wrapped = _SlicedPolicy(policy, decisions)
    sim = Simulation(
        workload.fresh_jobs(), wrapped, workload.cluster, window=workload.window
    )
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        sim.run()
    except SliceComplete:
        pass
    finally:
        profiler.disable()
    return profiler, wrapped.decisions
