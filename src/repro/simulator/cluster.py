"""Machine model: a space-shared cluster whose allocation unit is a node.

Mirrors the NCSA IA-64 Titan system in the paper (Table 2): 128
dual-processor nodes, a per-job node limit, and a runtime limit that changed
from 12 h to 24 h in December 2003 (captured here as per-period
:class:`JobLimits`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simulator.job import Job, JobState
from repro.util.sanitize import require, sanitize_enabled
from repro.util.timeunits import HOUR
from repro.util.validation import check_positive


@dataclass(frozen=True)
class JobLimits:
    """Per-job admission limits (paper Table 2)."""

    max_nodes: int
    max_runtime: float  # seconds

    def admits(self, nodes: int, requested_runtime: float) -> bool:
        """Whether a job with these requests is admissible."""
        return nodes <= self.max_nodes and requested_runtime <= self.max_runtime


#: Limits for the NCSA IA-64 cluster, June 2003 - November 2003.
TITAN_LIMITS_12H = JobLimits(max_nodes=128, max_runtime=12 * HOUR)
#: Limits for the NCSA IA-64 cluster, December 2003 - March 2004.
TITAN_LIMITS_24H = JobLimits(max_nodes=128, max_runtime=24 * HOUR)


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of the machine."""

    nodes: int = 128
    limits: JobLimits = TITAN_LIMITS_24H

    def __post_init__(self) -> None:
        check_positive("nodes", self.nodes)
        if self.limits.max_nodes > self.nodes:
            raise ValueError(
                f"job node limit {self.limits.max_nodes} exceeds capacity {self.nodes}"
            )


class Cluster:
    """Dynamic state of the machine: free nodes and the running set.

    The cluster enforces non-preemption and conservation invariants: a
    started job occupies exactly ``job.nodes`` nodes until its finish event,
    and the free-node count always stays within ``[0, capacity]``.
    """

    def __init__(self, config: ClusterConfig | None = None) -> None:
        self.config = config or ClusterConfig()
        self.free_nodes: int = self.config.nodes
        self._running: dict[int, Job] = {}

    @property
    def capacity(self) -> int:
        """Total number of nodes."""
        return self.config.nodes

    @property
    def used_nodes(self) -> int:
        return self.capacity - self.free_nodes

    @property
    def running_jobs(self) -> list[Job]:
        """Snapshot of currently running jobs."""
        return list(self._running.values())

    @property
    def running_count(self) -> int:
        """How many jobs are running (no snapshot of the set is built)."""
        return len(self._running)

    def admits(self, job: Job) -> bool:
        """Whether the job satisfies the configured per-job limits."""
        return self.config.limits.admits(job.nodes, float(job.requested_runtime))

    def can_start(self, job: Job) -> bool:
        """Whether enough nodes are free right now."""
        return job.nodes <= self.free_nodes

    def start(self, job: Job, now: float) -> float:
        """Start ``job`` at time ``now``; returns its completion time."""
        if job.state is not JobState.WAITING:
            raise ValueError(f"cannot start job {job.job_id} in state {job.state}")
        if job.nodes > self.free_nodes:
            raise ValueError(
                f"job {job.job_id} needs {job.nodes} nodes, only "
                f"{self.free_nodes} free"
            )
        end = job.mark_started(now)
        self.free_nodes -= job.nodes
        self._running[job.job_id] = job
        if sanitize_enabled():
            self._sanitize_accounting(f"after starting job {job.job_id}")
        return end

    def finish(self, job: Job, now: float) -> None:
        """Complete ``job`` at time ``now`` and release its nodes."""
        if self._running.pop(job.job_id, None) is None:
            raise ValueError(f"job {job.job_id} is not running")
        job.mark_finished(now)
        self.free_nodes += job.nodes
        if self.free_nodes > self.capacity:
            raise AssertionError("free nodes exceeded capacity (double release?)")
        if sanitize_enabled():
            self._sanitize_accounting(f"after finishing job {job.job_id}")

    def _sanitize_accounting(self, context: str) -> None:
        """Debug-mode check: node accounting is conserved (see util.sanitize)."""
        require(
            0 <= self.free_nodes <= self.capacity,
            f"free-node count {self.free_nodes} outside [0, {self.capacity}] "
            f"{context}",
        )
        occupied = sum(j.nodes for j in self._running.values())
        require(
            self.free_nodes + occupied == self.capacity,
            f"node accounting broken {context}: {self.free_nodes} free + "
            f"{occupied} running != capacity {self.capacity}",
        )
