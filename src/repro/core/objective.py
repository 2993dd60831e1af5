"""The hierarchical two-level scheduling objective (paper §2.1).

Schedule ``A`` beats schedule ``B`` iff ``A`` has smaller **total excessive
wait**, or equal total excessive wait and lower **average (bounded)
slowdown**.  Excessive wait of a job is its wait beyond a *target wait
bound* ω, which is either fixed (e.g. 50/100/300 hours, Figure 2) or dynamic
(*dynB*: the current wait of the longest-waiting queued job, §5.2).

Because every candidate schedule at one decision point covers the same job
set, comparing total slowdown is equivalent to comparing average slowdown;
the search accumulates totals and reports averages.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import total_ordering
from typing import Sequence

from repro.simulator.job import Job
from repro.util.timeunits import MINUTE
from repro.util.validation import check_non_negative


class TargetBound(abc.ABC):
    """How the target wait bound ω is determined at a decision point."""

    #: Short label used in policy names, e.g. ``"dynB"`` or ``"fixB50h"``.
    label: str

    @abc.abstractmethod
    def value(self, now: float, waiting: Sequence[Job]) -> float:
        """The bound ω (seconds) for this decision point."""


@dataclass(frozen=True)
class FixedBound(TargetBound):
    """A fixed target wait bound ω in seconds."""

    omega: float

    def __post_init__(self) -> None:
        check_non_negative("omega", self.omega)

    @property
    def label(self) -> str:  # type: ignore[override]
        return f"fixB{self.omega / 3600:g}h"

    def value(self, now: float, waiting: Sequence[Job]) -> float:
        return self.omega


@dataclass(frozen=True)
class DynamicBound(TargetBound):
    """dynB: ω = current wait of the longest-waiting job in the queue.

    With this bound the incumbent longest-waiting job always has zero
    excessive wait *at the decision instant*; any candidate schedule that
    delays some job beyond that incumbent wait pays for it in the first
    objective level.  The bound thereby tracks the workload automatically
    (paper §5.2).
    """

    @property
    def label(self) -> str:  # type: ignore[override]
        return "dynB"

    def value(self, now: float, waiting: Sequence[Job]) -> float:
        if not waiting:
            return 0.0
        # The longest ``Job.current_wait(now)`` in the queue, bit for bit:
        # rounded subtraction is monotone in the subtrahend, so the
        # earliest submission has the largest ``now - submit_time``, and
        # clamping at 0.0 commutes with taking that maximum.
        return max(0.0, now - min([job.submit_time for job in waiting]))


@total_ordering
@dataclass(frozen=True)
class ScheduleScore:
    """Lexicographic score of one complete candidate schedule.

    Lower is better.  ``total_excessive_wait`` and ``total_slowdown`` are in
    seconds and dimensionless respectively; ``n_jobs`` allows reporting the
    average slowdown.

    **Association-order contract.**  Both totals are left-to-right folds of
    per-job terms in placement order: ``((t1 + t2) + t3) + ...`` starting
    from ``+0.0``.  Floating-point addition is not associative, so every
    producer of a ``ScheduleScore`` — the reference engine's tuple
    accumulator, the fast engine's delta kernel and its C transcription —
    must use exactly this association to keep scores bit-identical across
    engines (the conformance suite asserts this; local search's
    ``evaluate_order`` produces none of its own, it returns an engine's).  ``avg_slowdown`` derives from
    ``total_slowdown``, so agreement on the totals implies agreement on the
    average.  See ``core/deltascore.py`` for why the delta kernel's
    skip-add of non-positive excess terms preserves bit-identity.
    """

    total_excessive_wait: float
    total_slowdown: float
    n_jobs: int

    @property
    def avg_slowdown(self) -> float:
        return self.total_slowdown / self.n_jobs if self.n_jobs else 0.0

    def _key(self) -> tuple[float, float]:
        return (self.total_excessive_wait, self.total_slowdown)

    def __lt__(self, other: "ScheduleScore") -> bool:
        if not isinstance(other, ScheduleScore):
            return NotImplemented
        return self._key() < other._key()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScheduleScore):
            return NotImplemented
        return self._key() == other._key()


@dataclass(frozen=True)
class ObjectiveConfig:
    """Everything needed to score schedules at a decision point.

    Parameters
    ----------
    bound:
        Fixed or dynamic target wait bound.
    slowdown_floor:
        Runtime floor for bounded slowdown (paper uses 1 minute).
    """

    bound: TargetBound
    slowdown_floor: float = MINUTE

    def job_terms(
        self, job: Job, start: float, omega: float, scheduler_runtime: float
    ) -> tuple[float, float]:
        """The job's contribution ``(excessive_wait, bounded_slowdown)``.

        ``scheduler_runtime`` is the runtime the scheduler plans with (R*);
        the slowdown denominator uses it because the scheduler cannot see a
        runtime it was not given.
        """
        wait = start - job.submit_time
        excess = max(0.0, wait - omega)
        denom = max(scheduler_runtime, self.slowdown_floor)
        slowdown = (wait + denom) / denom
        return excess, slowdown

    def score_schedule(
        self,
        jobs_and_starts: Sequence[tuple[Job, float]],
        now: float,
        use_actual_runtime: bool = True,
        omega: float | None = None,
    ) -> ScheduleScore:
        """Score a complete schedule (convenience for tests and baselines)."""
        if omega is None:
            omega = self.bound.value(now, [j for j, _ in jobs_and_starts])
        total_excess = 0.0
        total_slow = 0.0
        for job, start in jobs_and_starts:
            rt = job.scheduler_runtime(use_actual_runtime)
            excess, slow = self.job_terms(job, start, omega, rt)
            total_excess += excess
            total_slow += slow
        return ScheduleScore(total_excess, total_slow, len(jobs_and_starts))
