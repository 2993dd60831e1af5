"""Generalized hierarchical objectives: N lexicographic criteria.

The paper's objective is the two-level special case (total excessive wait,
then average slowdown) and names richer goals — "incorporating special
priority and fairshare in the scheduling objective" — as future work.
This module supplies that machinery:

- a :class:`Criterion` is one objective level: a per-job term plus an
  accumulator (sum by default, max for bottleneck criteria);
- a :class:`CriteriaEvaluator` turns an ordered tuple of criteria into the
  path evaluator the search engine folds along each candidate schedule;
- :class:`UsageTracker` maintains decayed per-user resource usage, the
  state behind the :class:`FairshareDelay` criterion.

Criteria terms must be **non-negative and independent of later
placements** so that partial accumulations lower-bound every completion —
the property branch-and-bound pruning relies on.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from functools import total_ordering
from typing import Callable, Mapping, Sequence

from repro.simulator.job import Job
from repro.util.timeunits import HOUR, MINUTE, WEEK


@dataclass(frozen=True)
class DecisionContext:
    """Everything criteria may consult at one decision point."""

    now: float
    omega: float
    runtimes: Mapping[int, float]  # job id -> planning runtime (R*)
    floor: float = MINUTE
    #: Per-user overuse fractions in [0, 1]; empty when no fairshare state.
    user_overuse: Mapping[str, float] = field(default_factory=dict)


class Criterion(abc.ABC):
    """One level of a lexicographic objective (lower is better)."""

    name: str = "criterion"
    #: Initial accumulator value.
    initial: float = 0.0
    #: Whether this criterion reads ``DecisionContext.user_overuse`` — the
    #: policy only maintains a usage tracker when some level needs it.
    needs_usage: bool = False

    @abc.abstractmethod
    def term(self, job: Job, start: float, ctx: DecisionContext) -> float:
        """This job's contribution (must be >= 0)."""

    def accumulate(self, acc: float, term: float) -> float:
        """Fold a term into the accumulator (default: sum)."""
        return acc + term

    def per_job_lower_bound(self) -> float:
        """Smallest possible term of any unplaced job (for pruning)."""
        return 0.0


class TotalExcessiveWait(Criterion):
    """The paper's first level: wait beyond the target bound ω."""

    name = "total-excessive-wait"

    def term(self, job: Job, start: float, ctx: DecisionContext) -> float:
        return max(0.0, (start - job.submit_time) - ctx.omega)


class TotalBoundedSlowdown(Criterion):
    """The paper's second level (total ≡ average at a fixed job set)."""

    name = "total-bounded-slowdown"

    def term(self, job: Job, start: float, ctx: DecisionContext) -> float:
        denom = max(ctx.runtimes[job.job_id], ctx.floor)
        return (start - job.submit_time + denom) / denom

    def per_job_lower_bound(self) -> float:
        return 1.0  # slowdown is at least 1


class TotalWait(Criterion):
    """Sum of waits — what ω = 0 collapses the first level into."""

    name = "total-wait"

    def term(self, job: Job, start: float, ctx: DecisionContext) -> float:
        return start - job.submit_time


class MaxWait(Criterion):
    """Bottleneck criterion: the longest wait in the schedule."""

    name = "max-wait"

    def term(self, job: Job, start: float, ctx: DecisionContext) -> float:
        return start - job.submit_time

    def accumulate(self, acc: float, term: float) -> float:
        return max(acc, term)


class WeightedWait(Criterion):
    """Priority-weighted total wait (the paper's "special priority").

    ``weight_of`` maps a job to a non-negative weight; higher-weight jobs
    make waiting costlier, so the search schedules them earlier.  The
    default weights every job 1.0 (≡ :class:`TotalWait`).
    """

    name = "weighted-wait"

    def __init__(self, weight_of: Callable[[Job], float] | None = None) -> None:
        self.weight_of = weight_of or (lambda job: 1.0)

    def term(self, job: Job, start: float, ctx: DecisionContext) -> float:
        weight = self.weight_of(job)
        if weight < 0:
            raise ValueError(f"negative priority weight for job {job.job_id}")
        return weight * (start - job.submit_time)


class FairshareDelay(Criterion):
    """Fairshare pressure: overusing users' jobs should wait longer.

    For a job owned by a user with overuse fraction ``o`` (0 for users at
    or under their fair share), the term is ``o x max(0, horizon - wait)``:
    it *decreases* as the job waits, so minimizing it defers overusers —
    but only up to ``horizon``, which caps the penalty and rules out
    unbounded starvation.  Users within their share contribute nothing.
    """

    name = "fairshare-delay"
    needs_usage = True

    def __init__(self, horizon: float = 24 * HOUR) -> None:
        if horizon <= 0:
            raise ValueError("horizon must be > 0")
        self.horizon = horizon

    def term(self, job: Job, start: float, ctx: DecisionContext) -> float:
        if job.user is None:
            return 0.0
        overuse = ctx.user_overuse.get(job.user, 0.0)
        if overuse <= 0.0:
            return 0.0
        wait = start - job.submit_time
        return overuse * max(0.0, self.horizon - wait)


class RuntimeProportionalExcess(Criterion):
    """Excessive wait against a per-job, runtime-dependent target bound.

    The paper suggests (§6.1) that "a target wait bound as a function of
    job runtime can be defined in the objective to further improve short
    jobs": a 5-minute job waiting 10 hours is worse than a 12-hour job
    waiting 10 hours.  Here each job's bound is
    ``base + factor x R*`` — short jobs get tight bounds, long jobs
    proportionally looser ones — and the term is the wait beyond it.
    """

    name = "runtime-proportional-excess"

    def __init__(self, base: float = HOUR, factor: float = 2.0) -> None:
        if base < 0 or factor < 0:
            raise ValueError("base and factor must be >= 0")
        self.base = base
        self.factor = factor

    def bound_for(self, job: Job, ctx: DecisionContext) -> float:
        return self.base + self.factor * ctx.runtimes[job.job_id]

    def term(self, job: Job, start: float, ctx: DecisionContext) -> float:
        wait = start - job.submit_time
        return max(0.0, wait - self.bound_for(job, ctx))


#: The paper's objective, expressed in criteria form.
def paper_objective() -> tuple[Criterion, ...]:
    return (TotalExcessiveWait(), TotalBoundedSlowdown())


# ----------------------------------------------------------------------
# Scores and evaluation
# ----------------------------------------------------------------------
@total_ordering
@dataclass(frozen=True)
class MultiScore:
    """Lexicographic score over N criteria levels (lower is better)."""

    levels: tuple[float, ...]
    n_jobs: int = 0

    def __lt__(self, other: "MultiScore") -> bool:
        if not isinstance(other, MultiScore):
            return NotImplemented
        return self.levels < other.levels

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiScore):
            return NotImplemented
        # Deliberately exact, not tolerance-based: together with __lt__
        # this must form a strict weak ordering, and an epsilon equality
        # is not transitive (a~b, b~c, a!~c), which would make the
        # search's best-score bookkeeping order-dependent.
        return self.levels == other.levels


class CriteriaEvaluator:
    """Folds a tuple of criteria along a candidate schedule.

    This is the general path evaluator for
    :class:`repro.core.search.DiscrepancySearch`; the paper's two-level
    objective has a built-in fold over the same traversal, and running it
    through this evaluator gives identical decisions (property-tested).
    """

    def __init__(self, criteria: Sequence[Criterion], ctx: DecisionContext) -> None:
        if not criteria:
            raise ValueError("need at least one criterion")
        self.criteria = tuple(criteria)
        self.ctx = ctx
        # ``extend`` runs once per search-tree node: prebinding each
        # level's (term, accumulate) pair skips two attribute lookups per
        # level per node.  Bound methods pickle by reference, so parallel
        # dispatch of picklable evaluators is unaffected.
        self._ops = tuple((c.term, c.accumulate) for c in self.criteria)

    def start(self) -> tuple[float, ...]:
        return tuple(c.initial for c in self.criteria)

    def extend(
        self, acc: tuple[float, ...], job: Job, begin: float
    ) -> tuple[float, ...]:
        ctx = self.ctx
        return tuple(
            accumulate(a, term(job, begin, ctx))
            for (term, accumulate), a in zip(self._ops, acc)
        )

    def score(self, acc: tuple[float, ...], n_jobs: int) -> MultiScore:
        return MultiScore(levels=acc, n_jobs=n_jobs)

    def lower_bound(self, acc: tuple[float, ...], jobs_left: int) -> MultiScore:
        """A score no completion of this partial schedule can beat."""
        levels = tuple(
            a + c.per_job_lower_bound() * jobs_left
            if type(c).accumulate is Criterion.accumulate
            else a
            for c, a in zip(self.criteria, acc)
        )
        return MultiScore(levels=levels)

    def score_schedule(
        self, jobs_and_starts: Sequence[tuple[Job, float]]
    ) -> MultiScore:
        """Score a complete schedule directly (reference path for tests)."""
        acc = self.start()
        for job, begin in jobs_and_starts:
            acc = self.extend(acc, job, begin)
        return self.score(acc, len(jobs_and_starts))


# ----------------------------------------------------------------------
# Fairshare usage tracking
# ----------------------------------------------------------------------
class UsageTracker:
    """Decayed per-user resource usage for fairshare objectives.

    Usage is planned area (nodes x planning runtime) recorded at job
    start, decaying exponentially with the configured half-life — recent
    consumption counts, last month's does not.  ``overuse`` reports each
    user's usage share in excess of an equal split among the queue's
    active users.
    """

    def __init__(self, half_life: float = WEEK) -> None:
        if half_life <= 0:
            raise ValueError("half_life must be > 0")
        self.half_life = half_life
        self._usage: dict[str, float] = {}
        self._last_decay = 0.0

    def reset(self) -> None:
        self._usage.clear()
        self._last_decay = 0.0

    def decay_to(self, now: float) -> None:
        """Age every user's usage to ``now`` (a no-op at or before the last step)."""
        dt = now - self._last_decay
        if dt <= 0:
            return
        factor = 0.5 ** (dt / self.half_life)
        for user in self._usage:
            self._usage[user] *= factor
        self._last_decay = now

    def record_start(self, job: Job, now: float, planned_runtime: float) -> None:
        if job.user is None:
            return
        self.decay_to(now)
        self._usage[job.user] = (
            self._usage.get(job.user, 0.0) + job.nodes * planned_runtime
        )

    def usage_of(self, user: str) -> float:
        return self._usage.get(user, 0.0)

    def overuse(self, now: float, active_users: Sequence[str]) -> dict[str, float]:
        """Per-user overuse fraction among ``active_users``.

        A user's share is their usage over the total usage of active
        users; the fair share is an equal split.  Overuse = max(0, share -
        fair); users with no recorded usage are at 0.
        """
        self.decay_to(now)
        users = [u for u in dict.fromkeys(active_users) if u is not None]
        if not users:
            return {}
        total = sum(self._usage.get(u, 0.0) for u in users)
        if total <= 0:
            return {u: 0.0 for u in users}
        fair = 1.0 / len(users)
        return {
            u: max(0.0, self._usage.get(u, 0.0) / total - fair) for u in users
        }
