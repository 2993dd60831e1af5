"""The search-based on-line scheduling policy (paper §2.3).

At every decision point the policy (1) orders the waiting jobs by its
branching heuristic, (2) resolves the target wait bound, (3) runs a
node-limited LDS or DDS over candidate orders, and (4) starts exactly the
jobs whose planned start in the best schedule is *now*.  Nothing about the
best schedule survives to the next decision point — the search reruns from
scratch, which is how it adapts to new arrivals and early completions.

Factory naming follows the paper: ``DDS/lxf/dynB`` is
``make_policy("dds", "lxf", DynamicBound(), node_limit=1000)``.
"""

from __future__ import annotations

import dataclasses
from operator import itemgetter
from typing import Sequence

from repro.core.branching import HEURISTICS, order_jobs
from repro.core.deltascore import JobArrays
from repro.core.objective import (
    DynamicBound,
    FixedBound,
    ObjectiveConfig,
    TargetBound,
)
from repro.core.criteria import (
    Criterion,
    CriteriaEvaluator,
    DecisionContext,
    UsageTracker,
)
from repro.core.ckernel import default_engine
from repro.core.profile import AvailabilityProfile
from repro.core.search import DiscrepancySearch, SearchProblem, SearchResult
from repro.predict.source import RuntimeSource, resolve_runtime_source
from repro.util.sanitize import require, sanitize_enabled
from repro.util.timeunits import WEEK
from repro.simulator.cluster import Cluster
from repro.simulator.job import Job
from repro.simulator.policy import RunningJob, SchedulingPolicy

_ROW_KEY = itemgetter(0)


class SearchSchedulingPolicy(SchedulingPolicy):
    """Goal-oriented scheduling via complete discrepancy search.

    Parameters
    ----------
    algorithm:
        ``"dds"`` or ``"lds"``.
    heuristic:
        Branching heuristic name (``"fcfs"``, ``"lxf"``, ``"sjf"``).
    bound:
        Target wait bound for the first objective level.
    node_limit:
        Search budget ``L`` per decision point.
    runtime_source:
        How planning runtimes resolve: ``True``/``"actual"`` for R* = T
        (default), ``False``/``"requested"`` for R* = R, or any
        :class:`~repro.predict.source.RuntimeSource` (e.g. a predictor).
    prune:
        Enable branch-and-bound pruning (extension; off in the paper).
    criteria:
        A custom lexicographic objective as an ordered sequence of
        :class:`~repro.core.criteria.Criterion` levels (fairshare,
        weighted priorities, max-wait, ...).  ``None`` (default) uses the
        paper's two-level objective with ``bound``.  The target bound
        still resolves ω for any :class:`TotalExcessiveWait` level.
    fairshare_half_life:
        Decay half-life of the per-user usage tracker (only relevant when
        some criterion ``needs_usage``).
    """

    def __init__(
        self,
        algorithm: str = "dds",
        heuristic: str = "lxf",
        bound: TargetBound | None = None,
        node_limit: int | None = 1000,
        runtime_source: "RuntimeSource | bool | str | None" = None,
        prune: bool = False,
        criteria: "Sequence[Criterion] | None" = None,
        fairshare_half_life: float | None = None,
        local_search_fraction: float = 0.0,
        record_anytime: bool = False,
        engine: str = "fast",
    ) -> None:
        if heuristic not in HEURISTICS:
            raise ValueError(
                f"unknown heuristic {heuristic!r}; choose from {sorted(HEURISTICS)}"
            )
        self.bound = bound if bound is not None else DynamicBound()
        self.searcher = DiscrepancySearch(
            algorithm=algorithm,
            node_limit=node_limit,
            prune=prune,
            local_search_fraction=local_search_fraction,
            record_anytime=record_anytime,
            engine=engine,
        )
        self.heuristic = heuristic
        self.objective = ObjectiveConfig(bound=self.bound)
        self.runtime_source = resolve_runtime_source(runtime_source)
        self.criteria = tuple(criteria) if criteria is not None else None
        self.usage_tracker: UsageTracker | None = None
        if self.criteria and any(c.needs_usage for c in self.criteria):
            self.usage_tracker = UsageTracker(
                half_life=fairshare_half_life if fairshare_half_life else WEEK
            )
        self.name = f"{algorithm.upper()}/{heuristic}/{self.bound.label}"
        if self.criteria is not None:
            self.name += "[" + "+".join(c.name for c in self.criteria) + "]"
        if not self.runtime_source.is_actual:
            self.name += f"[R*={self.runtime_source.label}]"
        self.stats: dict[str, float] = {}
        self.reset()

    def reset(self) -> None:
        if self.usage_tracker is not None:
            self.usage_tracker.reset()
        #: Per-decision (queue length, nodes until final best) pairs,
        #: populated only with ``record_anytime=True`` — the empirical
        #: basis for choosing the node limit L.
        self.anytime_nodes: list[tuple[int, int]] = []
        self.stats = {
            "decisions": 0,
            "searched_decisions": 0,
            "nofit_decisions": 0,
            "total_nodes_visited": 0,
            "max_queue_length": 0,
            "limit_hits": 0,
            "improved_decisions": 0,
        }

    # ------------------------------------------------------------------
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
        self.stats["max_queue_length"] = max(
            self.stats["max_queue_length"], len(waiting)
        )
        profile = AvailabilityProfile.from_running(cluster.capacity, now, running)
        sanitize = sanitize_enabled()
        if sanitize:
            profile.check_invariants()

        # No waiting job fits the nodes free at ``now``: whatever order
        # wins, every job is placed at a later breakpoint and the start-now
        # set is empty, so the search is not run.  ``free[0]`` is the number
        # the search would have planned against (releases within TIME_EPS
        # of ``now`` are folded into it).
        free_now = profile.free[0]
        for job in waiting:
            if job.nodes <= free_now:
                break
        else:
            self.stats["nofit_decisions"] += 1
            if self.usage_tracker is not None:
                # Decay is a float product of steps: take the step a
                # search at ``now`` would have taken.
                self.usage_tracker.decay_to(now)
            if sanitize:
                result = self._search(now, waiting, running, profile)
                require(
                    not result.jobs_startable_now(now),
                    f"search skipped at t={now} ({free_now} nodes free) "
                    "would have started jobs",
                )
            return []

        result = self._search(now, waiting, running, profile)
        self.stats["searched_decisions"] += 1
        self.stats["total_nodes_visited"] += result.nodes_visited
        if result.limit_hit:
            self.stats["limit_hits"] += 1
        if result.improved_after_first:
            self.stats["improved_decisions"] += 1
        if result.anytime:
            self.anytime_nodes.append((len(waiting), result.anytime[-1][0]))
        startable = result.jobs_startable_now(now)
        if sanitize:
            # The search must leave the profile exactly as it found it
            # (LIFO release discipline) and may only start jobs that fit
            # the nodes free at this instant.
            profile.check_invariants()
            demanded = sum(job.nodes for job in startable)
            require(
                demanded <= cluster.free_nodes,
                f"search chose jobs needing {demanded} nodes with only "
                f"{cluster.free_nodes} free at t={now}",
            )
        return startable

    def _search(
        self,
        now: float,
        waiting: Sequence[Job],
        running: Sequence[RunningJob],
        profile: AvailabilityProfile,
    ) -> SearchResult:
        """Marshal the queue, resolve the bound and search; no statistics.

        One pass over ``waiting`` makes a row per job — heuristic key,
        the job, and the four columns the engines read — with one call
        for the planning runtime and one for the key; one sort puts the
        rows in heuristic order and one transposition turns them into the
        problem's ``jobs`` and ``arrays``.
        """
        of = self.runtime_source.of
        key = HEURISTICS[self.heuristic]
        floor = self.objective.slowdown_floor
        rows = [
            (
                key(job, now, rt := of(job)),
                job,
                job.submit_time,
                job.nodes,
                rt,
                rt if rt >= floor else floor,  # JobArrays.build's clamp
            )
            for job in waiting
        ]
        rows.sort(key=_ROW_KEY)  # keyed: stable, and never compares two jobs
        _, jobs, submit, nodes, runtime, denom = zip(*rows)
        omega = self.bound.value(now, waiting)
        evaluator = None
        if self.criteria is not None:
            overuse: dict[str, float] = {}
            if self.usage_tracker is not None:
                active = [j.user for j in waiting if j.user is not None]
                active += [r.job.user for r in running if r.job.user is not None]
                overuse = self.usage_tracker.overuse(now, active)
            context = DecisionContext(
                now=now,
                omega=omega,
                runtimes={job.job_id: rt for job, rt in zip(jobs, runtime)},
                floor=floor,
                user_overuse=overuse,
            )
            evaluator = CriteriaEvaluator(self.criteria, context)
        problem = SearchProblem(
            jobs=jobs,
            profile=profile,
            now=now,
            omega=omega,
            objective=self.objective,
            use_actual_runtime=self.runtime_source.is_actual,
            evaluator=evaluator,
            arrays=JobArrays(list(submit), list(nodes), list(runtime), list(denom)),
        )
        if sanitize_enabled():
            require(
                omega >= 0,
                f"target wait bound must be >= 0, got omega={omega} at t={now}",
            )
            self._check_marshalling(problem, waiting)
        return self.searcher.search(problem)

    def _check_marshalling(self, problem: SearchProblem, waiting: Sequence[Job]) -> None:
        """Sanitizer: the problem marshalled in one pass is, exactly, what
        the per-job definitions derive — ``order_jobs`` over a runtime
        dict, the longest ``Job.current_wait`` (dynB), and
        ``JobArrays.build`` behind ``resolve_runtimes``."""
        now = problem.now
        runtimes = {job.job_id: self.runtime_of(job) for job in waiting}
        ordered = order_jobs(
            waiting, self.heuristic, now, runtime_of=lambda j: runtimes[j.job_id]
        )
        derived = dataclasses.replace(
            problem, jobs=tuple(ordered), runtimes=runtimes, arrays=None
        )
        require(
            problem.jobs == derived.jobs,
            f"marshalled job order differs from order_jobs at t={now}",
        )
        require(
            problem.arrays == derived.job_arrays(),
            f"marshalled job arrays differ from JobArrays.build at t={now}",
        )
        if isinstance(self.bound, DynamicBound):
            longest = max(job.current_wait(now) for job in waiting)
            require(
                problem.omega == longest,  # simlint: skip=SIM003 - bit-equality is the claim
                f"dynB omega={problem.omega} is not the longest current "
                f"wait {longest} at t={now}",
            )

    def on_start(self, job: Job, now: float) -> None:
        if self.usage_tracker is not None:
            self.usage_tracker.record_start(job, now, self.runtime_of(job))


def make_policy(
    algorithm: str,
    heuristic: str,
    bound: TargetBound | float | None = None,
    node_limit: int | None = 1000,
    runtime_source: "RuntimeSource | bool | str | None" = None,
    prune: bool = False,
    criteria: "Sequence[Criterion] | None" = None,
) -> SearchSchedulingPolicy:
    """Convenience factory.

    ``bound`` may be a :class:`TargetBound`, a number of **seconds** for a
    fixed bound, or ``None`` for the dynamic bound (dynB).
    ``runtime_source`` follows
    :func:`repro.predict.source.resolve_runtime_source`.
    The engine defaults to the compiled kernel when it is built
    (:func:`repro.core.ckernel.default_engine` — bit-identical results,
    silent fallback, ``REPRO_PURE_PYTHON=1`` opts out).
    """
    if bound is None:
        resolved: TargetBound = DynamicBound()
    elif isinstance(bound, TargetBound):
        resolved = bound
    else:
        resolved = FixedBound(float(bound))
    return SearchSchedulingPolicy(
        algorithm=algorithm,
        heuristic=heuristic,
        bound=resolved,
        node_limit=node_limit,
        runtime_source=runtime_source,
        prune=prune,
        criteria=criteria,
        engine=default_engine(),
    )
