"""Run policies on workloads and collect the paper's measures."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

if TYPE_CHECKING:  # cache.py imports runner; type-only to avoid the cycle
    from repro.experiments.cache import RunCache

from repro.metrics.excessive import ExcessiveWaitStats, excessive_wait_stats
from repro.metrics.measures import JobMetrics, compute_metrics
from repro.simulator.engine import Simulation
from repro.simulator.job import Job
from repro.simulator.policy import SchedulingPolicy
from repro.workloads.trace import Workload

#: A policy factory — matrices need a fresh policy object per run because
#: policies carry per-run statistics.
PolicyFactory = Callable[[], SchedulingPolicy]


@dataclass
class PolicyRun:
    """Everything one (workload, policy) simulation produced."""

    workload_name: str
    policy_name: str
    offered_load: float
    metrics: JobMetrics
    avg_queue_length: float
    utilization: float
    jobs: list[Job]  # in-window completed jobs (for class grids, excess)
    policy_stats: dict[str, Any] = field(default_factory=dict)
    wall_seconds: float = 0.0

    def excessive(self, threshold_seconds: float) -> ExcessiveWaitStats:
        """Excessive-wait stats of this run w.r.t. a threshold (seconds)."""
        return excessive_wait_stats(self.jobs, threshold_seconds)


def simulate(workload: Workload, policy: SchedulingPolicy) -> PolicyRun:
    """Simulate ``policy`` on a fresh copy of ``workload`` and summarize.

    The workload's own jobs are never mutated; each call gets fresh job
    objects, so the same :class:`Workload` can back many runs.
    """
    sim = Simulation(
        jobs=workload.fresh_jobs(),
        policy=policy,
        cluster_config=workload.cluster,
        window=workload.window,
    )
    result = sim.run()
    in_window = result.jobs_in_window()
    return PolicyRun(
        workload_name=workload.name,
        policy_name=result.policy_name,
        offered_load=workload.offered_load(),
        metrics=compute_metrics(in_window),
        avg_queue_length=result.avg_queue_length,
        utilization=result.utilization,
        jobs=in_window,
        policy_stats=result.extra,
        wall_seconds=result.wall_seconds,
    )


def run_matrix(
    workloads: Sequence[Workload],
    policies: Mapping[str, PolicyFactory],
    max_workers: int | None = 1,
    cache: "RunCache | None" = None,
) -> dict[tuple[str, str], PolicyRun]:
    """Simulate every policy on every workload.

    Returns ``{(workload_name, policy_key): PolicyRun}``.  ``policies``
    maps a report key (e.g. ``"FCFS-BF"``) to a factory producing a fresh
    policy instance.  ``max_workers`` above 1 (or 0 for all cores) fans
    the grid across a process pool, and ``cache`` (a
    :class:`~repro.experiments.cache.RunCache`) skips already-computed
    cells; see :mod:`repro.experiments.parallel`.  Any failed run raises
    after the rest of the grid has completed.
    """
    from repro.experiments.parallel import RunSpec, run_grid

    specs = [
        RunSpec(workload=workload, policy=factory, label=key)
        for workload in workloads
        for key, factory in policies.items()
    ]
    outcome = run_grid(specs, max_workers=max_workers, cache=cache)
    outcome.raise_errors()
    return outcome.by_key()
