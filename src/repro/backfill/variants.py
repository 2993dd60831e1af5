"""Backfill variants reviewed in the paper (§3.2).

These are the "improved FCFS-backfill" relatives the paper positions itself
against: they lower average wait/slowdown but can hurt the maximum wait.
The paper reports that Selective-backfill behaves like LXF-backfill and
Lookahead like FCFS-backfill on the NCSA workloads; the implementations
here let the benchmarks re-check those claims.

Faithfulness notes (also recorded in DESIGN.md):

- :class:`SelectiveBackfillPolicy` follows Srinivasan et al. (JSSPP'02):
  jobs are freely backfillable until their expansion factor
  ``(wait + R*) / R*`` crosses a starvation threshold, after which they
  receive reservations.  The adaptive threshold variant uses the running
  average expansion factor of started jobs.
- :class:`SlackBackfillPolicy` is a simplified Talby–Feitelson scheduler:
  each job receives a deadline (its earliest start when first seen plus a
  slack proportional to its runtime); any start is allowed that keeps every
  queued job's earliest start within its deadline.
- :class:`LookaheadPolicy` is an LOS-style packer: behind the head
  reservation it selects, by dynamic programming, the backfill set that
  maximizes nodes in use now, subject to the shadow-time/extra-node budgets.
"""

from __future__ import annotations

from typing import Sequence

from repro.backfill.priorities import FcfsPriority, PriorityFunction
from repro.predict.source import RuntimeSource, resolve_runtime_source
from repro.core.profile import AvailabilityProfile
from repro.simulator.cluster import Cluster
from repro.simulator.job import Job
from repro.simulator.policy import RunningJob, SchedulingPolicy
from repro.util.timeunits import MINUTE

_EPS = 1e-6


class SelectiveBackfillPolicy(SchedulingPolicy):
    """Selective reservations: only starving jobs get guarantees.

    Parameters
    ----------
    threshold:
        Fixed expansion-factor threshold; ``None`` selects the adaptive
        variant (running mean expansion factor at start, min 1.0).
    """

    def __init__(
        self,
        threshold: float | None = None,
        runtime_source: RuntimeSource | bool | str | None = None,
    ) -> None:
        self.threshold = threshold
        self.runtime_source = resolve_runtime_source(runtime_source)
        kind = "adaptive" if threshold is None else f"xf>{threshold:g}"
        self.name = f"Selective-backfill({kind})"
        self.stats: dict[str, float] = {}
        self.reset()

    def reset(self) -> None:
        self._xfactor_sum = 0.0
        self._xfactor_count = 0
        self.stats = {"decisions": 0, "reserved_jobs": 0}

    def _xfactor(self, job: Job, now: float) -> float:
        denom = max(self.runtime_of(job), MINUTE)
        return (now - job.submit_time + denom) / denom

    def _current_threshold(self) -> float:
        if self.threshold is not None:
            return self.threshold
        if self._xfactor_count == 0:
            return 1.0
        return max(1.0, self._xfactor_sum / self._xfactor_count)

    def on_start(self, job: Job, now: float) -> None:
        self._xfactor_sum += self._xfactor(job, now)
        self._xfactor_count += 1

    def decide(
        self,
        now: float,
        waiting: Sequence[Job],
        running: Sequence[RunningJob],
        cluster: Cluster,
    ) -> list[Job]:
        self.stats["decisions"] += 1
        if not waiting:
            return []
        threshold = self._current_threshold()
        # Starving jobs first (largest expansion factor), then FCFS.
        ordered = sorted(
            waiting,
            key=lambda j: (-self._xfactor(j, now), j.submit_time, j.job_id),
        )
        profile = AvailabilityProfile.from_running(cluster.capacity, now, running)
        started: list[Job] = []
        for job in ordered:
            runtime = self.runtime_of(job)
            if profile.fits_now(job.nodes, runtime):
                profile.reserve(now, runtime, job.nodes)
                started.append(job)
            elif self._xfactor(job, now) >= threshold:
                # Starving: commit a reservation so backfills cannot delay it.
                start = profile.earliest_start(job.nodes, runtime, now)
                profile.reserve(start, runtime, job.nodes)
                self.stats["reserved_jobs"] += 1
        return started


class SlackBackfillPolicy(SchedulingPolicy):
    """Slack-based backfill (simplified Talby–Feitelson).

    Every job, when first seen, is promised a deadline: its then-earliest
    start plus ``slack_factor`` times its (scheduler-visible) runtime.  A
    candidate may start now only if, with it committed, all other queued
    jobs can still be placed (in deadline order) without missing deadlines.
    """

    def __init__(
        self,
        slack_factor: float = 2.0,
        priority: PriorityFunction | None = None,
        runtime_source: RuntimeSource | bool | str | None = None,
    ) -> None:
        if slack_factor < 0:
            raise ValueError("slack_factor must be >= 0")
        self.slack_factor = slack_factor
        self.priority = priority or FcfsPriority()
        self.runtime_source = resolve_runtime_source(runtime_source)
        self.name = f"Slack-backfill(s={slack_factor:g},{self.priority.name})"
        self.stats: dict[str, float] = {}
        self.reset()

    def reset(self) -> None:
        self._deadlines: dict[int, float] = {}
        self.stats = {"decisions": 0, "deadline_blocks": 0}

    def _ensure_deadline(self, job: Job, profile: AvailabilityProfile, now: float) -> None:
        if job.job_id in self._deadlines:
            return
        runtime = self.runtime_of(job)
        est = profile.earliest_start(job.nodes, runtime, now)
        self._deadlines[job.job_id] = est + self.slack_factor * max(runtime, MINUTE)

    def _edf_misses(
        self,
        profile: AvailabilityProfile,
        others: list[Job],
        now: float,
    ) -> set[int]:
        """Job ids missing their deadline under greedy EDF placement."""
        scratch = profile.copy()
        misses: set[int] = set()
        for other in sorted(others, key=lambda j: self._deadlines[j.job_id]):
            runtime = self.runtime_of(other)
            start = scratch.earliest_start(other.nodes, runtime, now)
            if start > self._deadlines[other.job_id] + _EPS:
                misses.add(other.job_id)
            scratch.reserve(start, runtime, other.nodes)
        return misses

    def decide(
        self,
        now: float,
        waiting: Sequence[Job],
        running: Sequence[RunningJob],
        cluster: Cluster,
    ) -> list[Job]:
        self.stats["decisions"] += 1
        if not waiting:
            return []
        profile = AvailabilityProfile.from_running(cluster.capacity, now, running)
        for job in waiting:
            self._ensure_deadline(job, profile, now)
        ordered = sorted(
            waiting, key=lambda j: self.priority(j, now, self.runtime_of(j))
        )
        started: list[Job] = []
        pending = list(ordered)
        for job in ordered:
            runtime = self.runtime_of(job)
            if not profile.fits_now(job.nodes, runtime):
                continue
            others = [j for j in pending if j is not job]
            # "No worse" rule: starting this job may not push any *currently
            # meetable* deadline past its promise.  Jobs whose deadlines are
            # already unmeetable (a congested stretch) cannot veto — they
            # would deadlock the whole queue otherwise.
            baseline_misses = self._edf_misses(profile, others, now)
            token = profile.reserve(now, runtime, job.nodes)
            new_misses = self._edf_misses(profile, others, now)
            if new_misses - baseline_misses:
                self.stats["deadline_blocks"] += 1
                profile.release(token)
            else:
                started.append(job)
                pending.remove(job)
        return started

    def on_finish(self, job: Job, now: float) -> None:
        self._deadlines.pop(job.job_id, None)


class LookaheadPolicy(SchedulingPolicy):
    """Lookahead backfill: pack the machine now via dynamic programming.

    The head of the FCFS queue receives the (single) reservation.  Among
    the remaining queued jobs, the policy selects the subset maximizing the
    number of nodes put to work immediately, subject to the two classic
    budgets: total free nodes now, and — for jobs whose run would cross the
    reservation's shadow time — the extra nodes left once the reserved job
    starts.
    """

    def __init__(
        self, runtime_source: RuntimeSource | bool | str | None = None
    ) -> None:
        self.runtime_source = resolve_runtime_source(runtime_source)
        self.name = "Lookahead"
        self.stats: dict[str, float] = {}
        self.reset()

    def reset(self) -> None:
        self.stats = {"decisions": 0, "dp_runs": 0}

    def decide(
        self,
        now: float,
        waiting: Sequence[Job],
        running: Sequence[RunningJob],
        cluster: Cluster,
    ) -> list[Job]:
        self.stats["decisions"] += 1
        if not waiting:
            return []
        ordered = sorted(waiting, key=lambda j: (j.submit_time, j.job_id))
        profile = AvailabilityProfile.from_running(cluster.capacity, now, running)

        started: list[Job] = []
        # Strict FCFS prefix: start queue-head jobs while they fit.
        idx = 0
        while idx < len(ordered):
            job = ordered[idx]
            runtime = self.runtime_of(job)
            if profile.fits_now(job.nodes, runtime):
                profile.reserve(now, runtime, job.nodes)
                started.append(job)
                idx += 1
            else:
                break
        if idx >= len(ordered):
            return started

        # Reserve the blocked head job.
        head = ordered[idx]
        head_rt = self.runtime_of(head)
        shadow = profile.earliest_start(head.nodes, head_rt, now)
        profile.reserve(shadow, head_rt, head.nodes)

        free_now = profile.free_at(now)
        extra = profile.min_free(shadow, shadow + head_rt)
        candidates = [j for j in ordered[idx + 1 :] if j.nodes <= free_now]
        chosen = self._pack(candidates, now, shadow, free_now, extra)
        for job in chosen:
            runtime = self.runtime_of(job)
            if profile.fits_now(job.nodes, runtime):
                profile.reserve(now, runtime, job.nodes)
                started.append(job)
        return started

    def _pack(
        self,
        candidates: list[Job],
        now: float,
        shadow: float,
        free_now: int,
        extra: int,
    ) -> list[Job]:
        """2-constraint 0/1 knapsack maximizing nodes in use now."""
        if not candidates or free_now <= 0:
            return []
        self.stats["dp_runs"] += 1
        items: list[tuple[Job, int, int]] = []  # (job, w_now, w_extra)
        for job in candidates:
            runtime = self.runtime_of(job)
            crosses = now + runtime > shadow + _EPS
            items.append((job, job.nodes, job.nodes if crosses else 0))

        # dp[a][b] = best nodes usable with budgets (a, b); parent pointers
        # for reconstruction.
        width = extra + 1
        best = [[0] * width for _ in range(free_now + 1)]
        take: list[list[list[int]]] = [
            [[] for _ in range(width)] for _ in range(free_now + 1)
        ]
        for item_idx, (job, w1, w2) in enumerate(items):
            for a in range(free_now, w1 - 1, -1):
                for b in range(extra, w2 - 1, -1):
                    cand = best[a - w1][b - w2] + job.nodes
                    if cand > best[a][b]:
                        best[a][b] = cand
                        take[a][b] = take[a - w1][b - w2] + [item_idx]
        sel = take[free_now][extra]
        return [items[i][0] for i in sel]
