"""EASY-style priority backfill with a configurable number of reservations.

Jobs are considered in priority order.  The first ``reservations`` jobs that
cannot start now are each given a *scheduled start time* — the earliest time
enough nodes are free — committed onto the availability profile.  Any other
job is started immediately iff it fits on the profile *with the reservations
committed*, which is exactly the guarantee that backfilled jobs never delay
a reserved job.  The paper's simulations use a single reservation ("we do
not find more reservations to improve the performance", §4).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Sequence

from repro.backfill.priorities import PriorityFunction
from repro.core.profile import AvailabilityProfile
from repro.predict.source import RuntimeSource, resolve_runtime_source
from repro.simulator.cluster import Cluster
from repro.simulator.job import Job
from repro.simulator.policy import RunningJob, SchedulingPolicy
from repro.util.sanitize import require, sanitize_enabled


class BackfillPolicy(SchedulingPolicy):
    """Priority backfill.

    A decision asks each waiting job, in priority order, one question:
    does it fit now (:meth:`AvailabilityProfile.fits_now`)?  Only a job
    that does not, while reservations remain, pays for a full earliest-fit
    scan — its reservation.  Every other blocked job just waits, and once
    no node is free now and no reservation is left, the rest of the queue
    is not asked at all.  Starts, their order, every reservation and the
    ``stats`` are those of scanning every job with ``earliest_start``;
    under ``REPRO_SANITIZE=1`` each shortcut answer is re-derived that way.

    Parameters
    ----------
    priority:
        Priority function; determines the policy's name (e.g.
        ``FCFS-backfill``).
    reservations:
        How many top-priority blocked jobs receive scheduled start times.
    runtime_source:
        How planning runtimes resolve: ``True``/``"actual"`` for R* = T
        (default), ``False``/``"requested"`` for R* = R, or any
        :class:`~repro.predict.source.RuntimeSource` (e.g. a predictor).
    """

    def __init__(
        self,
        priority: PriorityFunction,
        reservations: int = 1,
        runtime_source: RuntimeSource | bool | str | None = None,
    ) -> None:
        if reservations < 0:
            raise ValueError("reservations must be >= 0")
        self.priority = priority
        self.reservations = reservations
        self.runtime_source = resolve_runtime_source(runtime_source)
        suffix = "" if reservations == 1 else f"(res={reservations})"
        self.name = f"{priority.name}-backfill{suffix}"
        self.stats: dict[str, float] = {}
        self.reset()

    def reset(self) -> None:
        self.stats = {
            "decisions": 0,
            "backfilled_starts": 0,
            "priority_starts": 0,
            "max_queue_length": 0,
        }

    # ------------------------------------------------------------------
    def decide(
        self,
        now: float,
        waiting: Sequence[Job],
        running: Sequence[RunningJob],
        cluster: Cluster,
    ) -> list[Job]:
        stats = self.stats
        stats["decisions"] += 1
        if not waiting:
            return []
        stats["max_queue_length"] = max(stats["max_queue_length"], len(waiting))

        priority, runtime_of = self.priority, self.runtime_of
        rows = []
        for job in waiting:
            runtime = runtime_of(job)
            rows.append((priority(job, now, runtime), job, runtime))
        rows.sort(key=itemgetter(0))
        profile = AvailabilityProfile.from_running(cluster.capacity, now, running)
        free = profile.free  # mutated in place by reserve
        sanitize = sanitize_enabled()

        started: list[Job] = []
        reservations_left = self.reservations
        blocked_seen = False
        for _, job, runtime in rows:
            fits = profile.fits_now(job.nodes, runtime)
            if sanitize:
                _check_fits_now(profile, job, runtime, now, fits)
            if fits:
                profile.reserve(now, runtime, job.nodes)
                started.append(job)
                if blocked_seen:
                    stats["backfilled_starts"] += 1
                else:
                    stats["priority_starts"] += 1
            else:
                blocked_seen = True
                if reservations_left:
                    # Give this blocked job a scheduled start; committing
                    # it to the profile is what protects it from later
                    # backfills.
                    start = profile.earliest_start(job.nodes, runtime, now)
                    profile.reserve(start, runtime, job.nodes)
                    reservations_left -= 1
            # No job fits a machine with no node free now, and no
            # reservation is left to make: the rest of the queue waits.
            # The sanitizer asks every remaining job anyway.
            if not free[0] and not reservations_left and not sanitize:
                break
        return started


def _check_fits_now(
    profile: AvailabilityProfile, job: Job, runtime: float, now: float, fits: bool
) -> None:
    """Sanitizer: a ``fits_now`` answer is what ``earliest_start`` says."""
    start = profile.earliest_start(job.nodes, runtime, now)
    if fits:
        require(
            start == now,  # simlint: skip=SIM003 - bit-equality is the claim
            f"backfill: fits_now said job {job.job_id} starts now, but "
            f"its earliest start is {start!r} at t={now!r}",
        )
    else:
        require(
            start > now,
            f"backfill: fits_now said job {job.job_id} waits, but its "
            f"earliest start is {start!r} at t={now!r}",
        )
