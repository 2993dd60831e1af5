"""Branching heuristics for the search tree (paper §2.3).

A branching heuristic is a total order on the waiting jobs; at every tree
node the children (remaining jobs) appear in this order, and only the first
child follows the heuristic — any other choice is a *discrepancy*.

The two heuristics used in the paper match the two objective levels:

- ``fcfs`` — first-come-first-served, aligned with bounding the maximum
  (and hence excessive) wait;
- ``lxf`` — largest (bounded) slowdown first, aligned with minimizing the
  average slowdown.

``sjf`` (shortest job first) is provided as an extension for ablations.

Heuristic keys take the job's *resolved planning runtime* (the paper's
R\\*) so the same heuristic works whether the policy plans with actual
runtimes, user requests, or predictions.  The keys depend only on the
decision time ``now``, so the order is computed once per decision point
and is static throughout the search.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.simulator.job import Job
from repro.util.timeunits import MINUTE

#: A heuristic maps ``(job, now, planning_runtime)`` to a sortable key;
#: smaller keys come first (higher priority).
HeuristicKey = Callable[[Job, float, float], "tuple[float, ...]"]

#: Resolves a job's planning runtime (R*); policies pass their
#: ``runtime_of`` bound method.
RuntimeOf = Callable[[Job], float]


def fcfs_key(job: Job, now: float, runtime: float) -> tuple[float, ...]:
    """Earlier submission first; job id breaks ties deterministically."""
    return (job.submit_time, job.job_id)


def lxf_key(job: Job, now: float, runtime: float) -> tuple[float, ...]:
    """Largest current bounded slowdown first.

    The slowdown a job would have if started right now, using the runtime
    the scheduler plans with and the 1-minute floor.
    """
    denom = runtime if runtime > MINUTE else MINUTE
    slowdown = (now - job.submit_time + denom) / denom
    return (-slowdown, job.submit_time, job.job_id)


def sjf_key(job: Job, now: float, runtime: float) -> tuple[float, ...]:
    """Shortest (scheduler-visible) runtime first."""
    return (runtime, job.submit_time, job.job_id)


HEURISTICS: dict[str, HeuristicKey] = {
    "fcfs": fcfs_key,
    "lxf": lxf_key,
    "sjf": sjf_key,
}


def order_jobs(
    jobs: Sequence[Job],
    heuristic: str,
    now: float,
    runtime_of: RuntimeOf | None = None,
) -> list[Job]:
    """Return ``jobs`` sorted by the named branching heuristic.

    ``runtime_of`` resolves each job's planning runtime; the default plans
    with actual runtimes (the paper's R* = T).
    """
    try:
        key = HEURISTICS[heuristic]
    except KeyError:
        raise ValueError(
            f"unknown heuristic {heuristic!r}; choose from {sorted(HEURISTICS)}"
        ) from None
    if runtime_of is None:
        runtime_of = lambda j: j.runtime  # noqa: E731 - tiny local default
    return sorted(jobs, key=lambda j: key(j, now, runtime_of(j)))
