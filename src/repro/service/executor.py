"""The degradation ladder: always answer, label anything weaker.

One scheduling decision can be arbitrarily expensive (the search tree
grows with the queue), but the service promises an answer within the
tenant's deadline.  The ladder resolves that tension by descending
through progressively cheaper rungs until one fits the remaining budget:

====================  =====================================================
rung / ``mode``       what answers
====================  =====================================================
``search``            the tenant's full search policy, taken only when the
                      EWMA cost estimate says it fits the budget (not
                      degraded)
``anytime``           the same searcher with its node limit set to
                      ``min(L, slice × measured node rate)`` for a slice of
                      the remaining budget — best-so-far at that many
                      nodes (**degraded**: the node-limit guarantee is
                      waived even if the search happened to finish)
``heuristic``         plain FCFS backfill sharing the primary policy's
                      runtime source (**degraded**)
``noop``              start nothing — always valid, the rung of last
                      resort (**degraded**)
====================  =====================================================

Every rung runs on the calling thread: a decision is milliseconds of
work, less than a round trip to another process costs
(``docs/robustness.md``, "Why there is no process-pool rung").  The
injected-fault site ``service.decide`` (the primary path fails) lets the
chaos suite drive every rung transition on demand.
"""

from __future__ import annotations

import time
from typing import Any

from repro.backfill import fcfs_backfill
from repro.simulator.cluster import Cluster
from repro.simulator.job import Job
from repro.simulator.policy import RunningJob, SchedulingPolicy
from repro.util import faults

#: Modes the ladder can emit (closed set; tests assert membership).  Only
#: ``search`` is not degraded: the primary policy answered in full.
MODES: tuple[str, ...] = ("search", "anytime", "heuristic", "noop")

#: The full search is taken when the budget left exceeds this many times
#: its estimated cost.
INLINE_SAFETY = 3.0
#: Weight of the newest observation in the cost estimate.
EWMA_ALPHA = 0.3
#: Share of the remaining budget the anytime rung may spend searching.
ANYTIME_FRACTION = 0.5
#: Seconds: the anytime rung's smallest slice, and the budget below
#: which it is skipped for the heuristic.
MIN_ANYTIME_BUDGET = 0.01


class DecisionLadder:
    """Per-tenant decision executor descending the degradation ladder.

    The primary ``policy`` is the tenant's own (the one whose hooks the
    engine drives), so full-mode answers are exactly what a batch run
    would have decided.  The heuristic rung shares that policy's runtime
    source, so even degraded answers plan with the same runtime beliefs.
    """

    def __init__(self, policy: SchedulingPolicy) -> None:
        self.policy = policy
        self.heuristic = fcfs_backfill(runtime_source=policy.runtime_source)
        #: EWMA of the observed cost of a complete search (seconds);
        #: starts at zero (optimistic), so a fresh tenant with a generous
        #: deadline always gets the full policy — which is what keeps
        #: fault-free replays on the primary path.
        self.inline_cost = 0.0
        #: EWMA of the primary policy's search rate (nodes visited per
        #: second of a timed decision); ``None`` until a search is timed.
        self.node_rate: float | None = None
        #: Decisions answered per mode, plus the primary-path failure tally.
        self.stats: dict[str, int] = {mode: 0 for mode in MODES}
        self.stats["primary_failures"] = 0

    # ------------------------------------------------------------------
    def decide(
        self,
        now: float,
        waiting: "tuple[Job, ...]",
        running: "tuple[RunningJob, ...]",
        cluster: Cluster,
        deadline_at: float | None = None,
    ) -> "tuple[list[Job], str, bool]":
        """Answer one decision within the budget; never raises.

        ``deadline_at`` is a :func:`time.perf_counter` timestamp; ``None``
        means "no deadline" (batch-style replay), which always takes the
        full primary path.
        """
        try:
            faults.fire("service.decide")
            jobs = self._full(now, waiting, running, cluster, deadline_at)
            self.stats["search"] += 1
            return jobs, "search", False
        except Exception:
            self.stats["primary_failures"] += 1

        remaining = self._remaining(deadline_at)
        if remaining is None or remaining > MIN_ANYTIME_BUDGET:
            try:
                jobs = self._anytime(now, waiting, running, cluster, remaining)
                self.stats["anytime"] += 1
                return jobs, "anytime", True
            except Exception:
                pass
        try:
            jobs = self.heuristic.decide(now, waiting, running, cluster)
            self.stats["heuristic"] += 1
            return jobs, "heuristic", True
        except Exception:
            # Starting nothing is always a valid decision: the queue is
            # untouched and the next event gets another chance.
            self.stats["noop"] += 1
            return [], "noop", True

    # ------------------------------------------------------------------
    def _remaining(self, deadline_at: float | None) -> float | None:
        if deadline_at is None:
            return None
        return deadline_at - time.perf_counter()

    def _observe(self, cost: float) -> None:
        """Fold the wall cost of one complete search into the estimate."""
        self.inline_cost = (1 - EWMA_ALPHA) * self.inline_cost + EWMA_ALPHA * cost

    def _stat(self, key: str) -> Any:
        """One of the primary policy's counters (``searched_decisions``,
        ``total_nodes_visited``, ``limit_hits``), or ``None`` for a policy
        that keeps none."""
        return (getattr(self.policy, "stats", None) or {}).get(key)

    def _timed_decide(
        self,
        now: float,
        waiting: "tuple[Job, ...]",
        running: "tuple[RunningJob, ...]",
        cluster: Cluster,
    ) -> "tuple[list[Job], float | None]":
        """The primary policy's answer and what it cost — ``None`` when it
        answered without searching (empty queue, no job fits): a near-free
        answer says nothing about the next search, and a run of them would
        decay the estimate until a long request is priced onto the loop.

        A timed search also folds its nodes per second into
        :attr:`node_rate`, whatever node limit it ran under."""
        searched = self._stat("searched_decisions")
        nodes = self._stat("total_nodes_visited")
        t0 = time.perf_counter()
        jobs = self.policy.decide(now, waiting, running, cluster)
        cost = time.perf_counter() - t0
        if searched is not None and self._stat("searched_decisions") == searched:
            return jobs, None
        if nodes is not None and cost > 0:
            rate = (self._stat("total_nodes_visited") - nodes) / cost
            prev = rate if self.node_rate is None else self.node_rate
            self.node_rate = (1 - EWMA_ALPHA) * prev + EWMA_ALPHA * rate
        return jobs, cost

    def _full(
        self,
        now: float,
        waiting: "tuple[Job, ...]",
        running: "tuple[RunningJob, ...]",
        cluster: Cluster,
        deadline_at: float | None,
    ) -> list[Job]:
        """The primary policy, when its estimated cost fits the budget."""
        remaining = self._remaining(deadline_at)
        if remaining is not None and remaining <= self.inline_cost * INLINE_SAFETY:
            raise TimeoutError(
                f"inline search projected at {self.inline_cost:.3f}s won't "
                f"fit the remaining {remaining:.3f}s budget"
            )
        jobs, cost = self._timed_decide(now, waiting, running, cluster)
        if cost is not None:
            self._observe(cost)
        return jobs

    def _anytime(
        self,
        now: float,
        waiting: "tuple[Job, ...]",
        running: "tuple[RunningJob, ...]",
        cluster: Cluster,
        remaining: float | None,
    ) -> list[Job]:
        """The primary searcher on the node budget a slice of the remaining
        time buys at the measured rate: best-so-far at that many nodes.

        With no rate measured yet the budget is the policy's own ``L`` —
        the optimism of the ``search`` rung's zero-start estimate — and a
        policy without one cannot bound the search at all.
        """
        searcher = getattr(self.policy, "searcher", None)
        if searcher is None:
            raise RuntimeError("primary policy has no anytime searcher")
        seconds = MIN_ANYTIME_BUDGET
        if remaining is not None:
            seconds = max(remaining * ANYTIME_FRACTION, MIN_ANYTIME_BUDGET)
        limit = searcher.node_limit
        budget = limit
        if self.node_rate is not None:
            nodes = max(1, int(seconds * self.node_rate))
            budget = nodes if limit is None else min(limit, nodes)
        if budget is None:
            raise RuntimeError("no node rate measured to bound an exhaustive search")
        hits = self._stat("limit_hits")
        try:
            searcher.node_limit = budget
            jobs, cost = self._timed_decide(now, waiting, running, cluster)
        finally:
            searcher.node_limit = limit
        if cost is not None and (budget == limit or self._stat("limit_hits") == hits):
            # The budget did not cut the search short, so this is what a
            # complete search costs now.  Without it the estimate could
            # only be lowered by the rung it has just ruled out, and one
            # host stall would degrade the tenant for good.
            self._observe(cost)
        return jobs
