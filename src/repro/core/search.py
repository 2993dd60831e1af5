"""Node-limited anytime LDS / DDS over candidate schedules (paper §2.2-2.3).

One :class:`DiscrepancySearch` run explores orderings of the waiting jobs.
Each tree node places the next job of the ordering at its earliest feasible
start on the availability profile (list scheduling along the path); each
leaf is a complete candidate schedule scored with the hierarchical
objective.  Iterations follow exactly the permutation orders defined in
:mod:`repro.core.search_tree`; prefixes are shared within an iteration via
depth-first reserve/release on the profile, and every placement counts as
one node visit against the limit ``L``.

The search is *anytime*: the best complete schedule found so far is always
available.  The pure-heuristic path (iteration 0) is completed even when
``L`` is smaller than the queue length, so a valid schedule always exists.

Objectives come in two forms: the paper's two-level objective, and
arbitrary lexicographic objectives (fairshare, priorities, max-wait — see
:mod:`repro.core.criteria`) plugged in via ``SearchProblem.evaluator``.
Within an engine both run through the same traversal; only the function
that folds one placed job into the path's accumulator differs.

Branch-and-bound pruning is OFF by default — the paper explicitly leaves it
to future work and its node accounting would differ — but is available via
``prune=True`` for the ablation benchmarks.

LDS and DDS differ only in which children a node may take; that
difference is written once, as :func:`child_rule`, and each engine path
keeps one DFS over it.  Three engines implement the identical traversal:

- ``engine="fast"`` (the default) — the allocation-light hot path: the
  remaining-jobs set is an in-place index array threaded into a linked
  list (O(1) unlink/relink per visit instead of an O(n) list slice),
  per-job data sits in flat columns addressed by that index, and
  placements go through :class:`~repro.core.profile.SearchProfile`, whose
  ``place`` is query, commit and undo push in one forward walk — no
  ``bisect`` calls, no token objects (see ``docs/performance.md``).
- ``engine="reference"`` — the list-slicing DFS over
  :class:`~repro.core.profile.AvailabilityProfile`, kept as the executable
  specification.  Every :class:`SearchResult` field (order, starts, score,
  node accounting) must be bit-identical between the engines; the
  differential tests in ``tests/test_search_fastpath.py``, the conformance
  fuzzer and the ``repro bench`` harness all hold the fast path to that
  contract.
- ``engine="compiled"`` — the fast engine's delta kernel transcribed to C
  (:mod:`repro.core.ckernel`), falling back to ``"fast"`` when the
  extension is not built or the search needs a facility it omits.

One decision is one sequential search, as in the paper; spare cores go to
the run grid (:mod:`repro.experiments.parallel`), where runs are
independent.
"""

from __future__ import annotations

import sys

from dataclasses import dataclass, field
from math import inf
from typing import Any, Callable, Union

from repro.core import ckernel
from repro.core.criteria import CriteriaEvaluator, MultiScore
from repro.core.deltascore import JobArrays
from repro.core.objective import ObjectiveConfig, ScheduleScore
from repro.core.profile import AvailabilityProfile
from repro.core.search_tree import max_discrepancies
from repro.simulator.job import Job
from repro.util.validation import check_positive

_ALGORITHMS = ("dds", "lds")

#: A search score: the paper's two-level score or a general N-level one.
Score = Union[ScheduleScore, MultiScore]


class _StopSearch(Exception):
    """Raised internally when the node budget is exhausted."""


def root_state(lds: bool, iteration: int) -> int:
    """The node state ``s`` (see :func:`child_rule`) at the root of
    ``iteration``.  DDS iteration 0 starts below zero, which *is* the
    heuristic chain: it needs no case of its own."""
    return iteration if lds else iteration - 1


def child_rule(lds: bool, s: int, m: int) -> tuple[int, int, int] | None:
    """Which children a search node may take: the one place LDS and DDS
    differ (paper §2.2, Fig. 1).

    A node carries one integer ``s`` — for LDS the discrepancies still to
    spend, for DDS the levels left above the forced discrepancy — and has
    ``m`` remaining jobs in heuristic order, rank 0 being the heuristic
    child.  Returns ``None`` when only the heuristic child is allowed from
    here all the way down (the engines run the chain, which ends in the
    leaf), else ``(lo, s0, s1)``: ranks ``[lo, m)`` are allowed, the child
    of rank 0 inherits ``s0`` and every other child ``s1``.

    Every engine's DFS is this rule plus place/score/recurse; the orders it
    must produce are :mod:`repro.core.search_tree`'s generators, which
    ``tests/test_search_rule.py`` compares it with leaf for leaf.
    """
    if lds:
        if s == 0:
            return None
        # At most max(0, m - 2) discrepancies fit strictly below a child:
        # the last level has a single child, the heuristic one.
        cap = m - 2 if m > 2 else 0
        if s <= cap:
            lo = 0
        elif s == cap + 1:
            lo = 1  # rank 0 would keep a budget it can no longer spend
        else:
            lo = m  # even after a discrepancy here too many are left
        return lo, s, s - 1
    if s < 0:
        return None
    # s == 0 is the forced discrepancy (no child when m < 2); above it
    # every rank is allowed.
    return (0 if s > 0 else 1), s - 1, s - 1


def resolve_runtimes(problem: "SearchProblem") -> dict[int, float]:
    """The planning runtime of every job in ``problem``, by job id."""
    if problem.runtimes is not None:
        rt = dict(problem.runtimes)
        missing = {j.job_id for j in problem.jobs} - set(rt)
        if missing:
            raise ValueError(f"runtimes missing for jobs {sorted(missing)}")
        return rt
    if problem.arrays is not None:
        return {
            job.job_id: rt for job, rt in zip(problem.jobs, problem.arrays.runtime)
        }
    use_actual = problem.use_actual_runtime
    return {j.job_id: j.scheduler_runtime(use_actual) for j in problem.jobs}


def build_strategy(
    problem: "SearchProblem", rt: dict[int, float]
) -> "tuple[tuple[float, ...], Callable[..., Any], Callable[..., Any], Callable[..., Any]]":
    """The scoring strategy for a problem: ``(acc0, extend, score, lower)``.

    The reference engine's fold, and the spec the other spellings of the
    two-level terms (:func:`_index_strategy`,
    ``SearchProfile.place_run_fold``, the C kernel) are held to.
    """
    evaluator = problem.evaluator
    if evaluator is not None:
        return (
            evaluator.start(),
            evaluator.extend,
            evaluator.score,
            evaluator.lower_bound,
        )
    omega = problem.omega
    floor = problem.objective.slowdown_floor

    def extend(acc: tuple[float, ...], job: Job, start: float) -> tuple[float, ...]:
        wait = start - job.submit_time
        denom = rt[job.job_id]
        if denom < floor:
            denom = floor
        excess = wait - omega
        return (
            acc[0] + (excess if excess > 0.0 else 0.0),
            acc[1] + (wait + denom) / denom,
        )

    def score(acc: tuple[float, ...], n_jobs: int) -> ScheduleScore:
        return ScheduleScore(acc[0], acc[1], n_jobs)

    def lower(acc: tuple[float, ...], left: int) -> ScheduleScore:
        # Unplaced jobs add >= 0 excess and >= 1 slowdown each.
        return ScheduleScore(acc[0], acc[1] + left, 0)

    return (0.0, 0.0), extend, score, lower


def _index_strategy(
    problem: "SearchProblem", arrays: JobArrays
) -> "tuple[tuple[float, ...], Callable[..., Any], Callable[..., Any], Callable[..., Any]]":
    """:func:`build_strategy` for the fast engine: ``(acc0, fold, score,
    lower)``, with ``fold(acc, i, start)`` addressed by the job's dense
    index and ``lower`` returning the raw levels both score types order
    by.  The two-level ``fold`` does ``build_strategy``'s operations in
    its order on ``arrays`` (the floor clamp hoisted into ``denom``; adding
    the excess only when positive is exact, :mod:`repro.core.deltascore`).
    """
    evaluator = problem.evaluator
    if evaluator is not None:
        jobs, extend, bound = problem.jobs, evaluator.extend, evaluator.lower_bound
        return (
            evaluator.start(),
            lambda acc, i, start: extend(acc, jobs[i], start),
            evaluator.score,
            lambda acc, left: bound(acc, left).levels,
        )
    submit, denom, omega = arrays.submit, arrays.denom, problem.omega

    def fold(acc: tuple[float, float], i: int, start: float) -> tuple[float, float]:
        wait = start - submit[i]
        excess = wait - omega
        den = denom[i]
        return (
            acc[0] + excess if excess > 0.0 else acc[0],
            acc[1] + (wait + den) / den,
        )

    return (
        (0.0, 0.0),
        fold,
        lambda acc, n_jobs: ScheduleScore(acc[0], acc[1], n_jobs),
        # Unplaced jobs add >= 0 excess and >= 1 slowdown each.
        lambda acc, left: (acc[0], acc[1] + left),
    )


@dataclass(frozen=True)
class SearchProblem:
    """One scheduling decision point, ready to be searched.

    ``jobs`` must already be in branching-heuristic order; ``profile`` must
    be rooted at ``now`` and reflect the running jobs.  ``omega`` is the
    resolved target wait bound for this decision.
    """

    jobs: tuple[Job, ...]
    profile: AvailabilityProfile
    now: float
    omega: float
    objective: ObjectiveConfig
    use_actual_runtime: bool = True
    #: Pre-resolved planning runtimes per job id (overrides
    #: ``use_actual_runtime``); how policies with predictors or other
    #: custom :class:`~repro.predict.source.RuntimeSource` objects feed
    #: their estimates into the search.
    runtimes: dict[int, float] | None = None
    #: General N-level objective; when set it supersedes ``objective`` /
    #: ``omega`` for scoring (placement is unaffected).
    evaluator: CriteriaEvaluator | None = None
    #: The dense-index view of ``jobs`` (row ``i`` describes ``jobs[i]``)
    #: that the fast and compiled engines read.  The policy supplies it,
    #: built in the same pass that orders the queue, and then it is also
    #: where the planning runtimes come from; a problem made without it
    #: gets one from :meth:`job_arrays`.  Not part of equality or the repr.
    arrays: JobArrays | None = field(default=None, compare=False, repr=False)

    def job_arrays(self) -> JobArrays:
        """``arrays``, or the same view built from ``runtimes`` /
        ``use_actual_runtime`` (a missing runtime raises here)."""
        if self.arrays is not None:
            return self.arrays
        return JobArrays.build(
            self.jobs, resolve_runtimes(self), self.objective.slowdown_floor
        )


@dataclass
class SearchResult:
    """Outcome of one search."""

    best_order: tuple[Job, ...]
    best_starts: dict[int, float]  # job_id -> planned start time
    best_score: Score
    nodes_visited: int
    leaves_evaluated: int
    iterations_started: int
    limit_hit: bool
    improved_after_first: bool = False
    #: Anytime profile: ``(nodes_visited, score)`` at every improvement,
    #: recorded only when the search ran with ``record_anytime=True``.
    anytime: list[tuple[int, Score]] | None = None

    def jobs_startable_now(self, now: float) -> list[Job]:
        """Jobs whose planned start in the best schedule is at or before
        ``now``.

        The comparison is ``start <= now`` with **no epsilon tolerance**,
        on purpose: the profile returns either ``now`` itself or a strictly
        later breakpoint, and a release can occur arbitrarily soon after
        ``now`` — any epsilon grace *above* ``now`` could start a job
        before its nodes exist.  Starts strictly below ``now`` never come
        out of ``earliest_start`` (it clamps to the profile origin) but are
        reachable via float drift in hand-built results; ``<=`` treats them
        as what they claim — a plan that holds the nodes from no later
        than ``now`` — so the job starts now, not in the past.
        """
        starts = self.best_starts
        return [job for job in self.best_order if starts[job.job_id] <= now]


@dataclass
class DiscrepancySearch:
    """A configured search algorithm.

    Parameters
    ----------
    algorithm:
        ``"dds"`` or ``"lds"``.
    node_limit:
        Maximum node visits ``L`` per search (paper varies 1K-100K); ``None``
        means exhaustive.
    prune:
        Optional branch-and-bound pruning (extension; default off).
    """

    algorithm: str = "dds"
    node_limit: int | None = 1000
    prune: bool = False
    #: Fraction of the node budget reserved for a hill-climbing pass over
    #: the tree search's best order (the paper's local-search future work;
    #: see :mod:`repro.core.local_search`).  0 disables it.
    local_search_fraction: float = 0.0
    #: Record the anytime profile (score vs. nodes visited at every
    #: improvement) in the result — the empirical basis for choosing L.
    record_anytime: bool = False
    #: ``"fast"`` (index-addressed hot path, the default), ``"reference"``
    #: (the executable specification), or ``"compiled"`` (the C kernel,
    #: falling back to ``"fast"``).  All return bit-identical results; the
    #: knob exists for differential testing and the ``repro bench``
    #: speedup measurement.
    engine: str = "fast"

    def __post_init__(self) -> None:
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; choose from {_ALGORITHMS}"
            )
        if self.node_limit is not None and self.node_limit < 1:
            raise ValueError("node_limit must be >= 1 or None")
        if not 0.0 <= self.local_search_fraction < 1.0:
            raise ValueError("local_search_fraction must be in [0, 1)")
        if self.engine not in _ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; choose from {tuple(_ENGINES)}"
            )

    # ------------------------------------------------------------------
    def search(self, problem: SearchProblem) -> SearchResult:
        """Run the search and return the best schedule found."""
        tree_budget = self.node_limit
        if self.node_limit is not None and self.local_search_fraction > 0.0:
            tree_budget = max(
                1, round(self.node_limit * (1.0 - self.local_search_fraction))
            )
        engine = _ENGINES[self.engine]
        result = engine(
            problem,
            self.algorithm,
            tree_budget,
            self.prune,
            self.record_anytime,
        )
        if self.local_search_fraction <= 0.0 or not result.best_order:
            return result
        # Spend what's left of the full budget on hill climbing, each
        # candidate order scored by the engine that ran the tree search.
        from repro.core.local_search import hill_climb

        remaining = (
            None
            if self.node_limit is None
            else max(0, self.node_limit - result.nodes_visited)
        )
        if remaining is not None and remaining < len(result.best_order) * 2:
            return result  # not enough budget for even one neighbour
        climb = hill_climb(problem, result.best_order, remaining, engine)
        result.nodes_visited += climb.nodes_visited
        if climb.improved and climb.best_score < result.best_score:
            result.best_order = climb.best_order
            result.best_starts = climb.best_starts
            result.best_score = climb.best_score  # type: ignore[assignment]
            result.improved_after_first = True
            if result.anytime is not None:
                # The climb's improvement is part of the anytime story too:
                # it became known after all tree + climb visits so far.
                result.anytime.append((result.nodes_visited, result.best_score))
        return result


class _SearchRunBase:
    """Mutable state shared by the python engines for one search invocation:
    the node budget and accounting, the incumbent and the iteration loop.

    Subclasses implement ``_iterate`` — one full DFS from the root state
    of one discrepancy iteration, threading an accumulator tuple ``acc``
    down each path — and own how a path is scored and remembered.
    """

    def __init__(
        self,
        problem: SearchProblem,
        algorithm: str,
        node_limit: int | None,
        prune: bool,
        record_anytime: bool = False,
    ) -> None:
        self.problem = problem
        self._lds = algorithm == "lds"
        self.node_limit = node_limit
        self.prune = prune
        self.anytime: list[tuple[int, Score]] | None = (
            [] if record_anytime else None
        )
        self.nodes_visited = 0
        self.leaves_evaluated = 0
        self.iterations_started = 0
        self.limit_hit = False
        self.improved_after_first = False

        self.best_score: Score | None = None
        self.best_order: tuple[Job, ...] = ()
        self.best_starts: dict[int, float] = {}

    @classmethod
    def search(cls, *args: Any) -> SearchResult:
        """Construct and run in one call: the ``_ENGINES`` entry shape."""
        return cls(*args).run()

    # ------------------------------------------------------------------
    def run(self) -> SearchResult:
        # n == 0 deliberately takes the normal path: ``max_discrepancies(0)
        # == 0`` so iteration 0 runs, evaluates the single (empty) leaf,
        # and the result honours every convention of the n >= 1 path —
        # ``iterations_started == 1``, ``leaves_evaluated == 1``, and an
        # anytime record when requested — instead of a bespoke early
        # return that bypassed ``_leaf`` entirely.
        n = len(self.problem.jobs)
        # The DFS recurses one level per waiting job; make sure deep queues
        # cannot hit the interpreter's recursion limit.  The raised limit is
        # scoped to this search — leaking it would let inflated interpreter
        # state bleed across runs and into experiment worker processes.
        needed = n * 3 + 100
        prior_limit = sys.getrecursionlimit()
        if prior_limit < needed:
            sys.setrecursionlimit(needed)
        try:
            for iteration in range(0, max_discrepancies(n) + 1):
                self.iterations_started += 1
                self._iterate(root_state(self._lds, iteration))
        except _StopSearch:
            self.limit_hit = True
        finally:
            if prior_limit < needed:
                sys.setrecursionlimit(prior_limit)
        assert self.best_score is not None  # iteration 0 always completes
        return SearchResult(
            best_order=self.best_order,
            best_starts=self.best_starts,
            best_score=self.best_score,
            nodes_visited=self.nodes_visited,
            leaves_evaluated=self.leaves_evaluated,
            iterations_started=self.iterations_started,
            limit_hit=self.limit_hit,
            improved_after_first=self.improved_after_first,
            anytime=self.anytime,
        )

    def _iterate(self, s: int) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared node machinery
    # ------------------------------------------------------------------
    def _check_budget(self) -> None:
        """Raise once the node budget is gone — never during the first leaf."""
        if self.leaves_evaluated == 0:
            return  # the heuristic schedule always completes
        if self.node_limit is not None and self.nodes_visited >= self.node_limit:
            raise _StopSearch


class _ReferenceSearchRun(_SearchRunBase):
    """The list-slicing DFS: the fast engine's executable spec.

    Each recursion level materialises the child's remaining-jobs list with
    an O(n) slice, and placements pay the reference profile's
    ``bisect``/``insert``/``del`` costs.  Kept this plain so differential
    tests (and ``repro bench``) can hold the fast engine to bit-identical
    results and measure its speedup against the pre-optimisation baseline.
    """

    def __init__(self, problem: SearchProblem, *args: Any) -> None:
        super().__init__(problem, *args)
        self.profile = problem.profile.copy()  # never mutate the caller's
        # Per-job planning runtimes, resolved once for the whole search.
        self._rt = resolve_runtimes(problem)
        self._prefix: list[tuple[Job, float]] = []
        self._acc0, self._extend, self._score_of, self._lower_of = build_strategy(
            problem, self._rt
        )

    def _iterate(self, s: int) -> None:
        self._dfs(list(self.problem.jobs), s, self._acc0)

    def _leaf(self, acc: tuple[float, ...]) -> None:
        self.leaves_evaluated += 1
        score = self._score_of(acc, len(self._prefix))
        if self.best_score is None or score < self.best_score:
            if self.best_score is not None:
                self.improved_after_first = True
            self.best_score = score
            self.best_order = tuple(job for job, _ in self._prefix)
            self.best_starts = {job.job_id: start for job, start in self._prefix}
            if self.anytime is not None:
                self.anytime.append((self.nodes_visited, score))

    def _prune_child(self, acc: tuple[float, ...], left: int) -> bool:
        """Branch-and-bound: can this partial schedule still beat the best?"""
        if not self.prune or self.best_score is None:
            return False
        return not (self._lower_of(acc, left) < self.best_score)

    def _visit(self, job: Job) -> tuple[object, float]:
        """Place ``job`` at its earliest start; returns (undo token, start)."""
        self.nodes_visited += 1
        rt = self._rt[job.job_id]
        start = self.profile.earliest_start(job.nodes, rt, self.problem.now)
        token = self.profile.reserve(start, rt, job.nodes, check=False)
        self._prefix.append((job, start))
        return token, start

    def _unvisit(self, token: object) -> None:
        self._prefix.pop()
        self.profile.release(token)  # type: ignore[arg-type]

    def _dfs(self, remaining: list[Job], s: int, acc: tuple[float, ...]) -> None:
        m = len(remaining)
        rule = child_rule(self._lds, s, m)
        if rule is None:
            # Heuristic child only from here down; the chain ends in the leaf.
            if not remaining:
                self._leaf(acc)
                return
            ranks, s0, s1 = range(1), s, s
        else:
            lo, s0, s1 = rule
            ranks = range(lo, m)
        for idx in ranks:
            self._check_budget()
            job = remaining[idx]
            token, start = self._visit(job)
            try:
                new_acc = self._extend(acc, job, start)
                if not self._prune_child(new_acc, m - 1):
                    rest = remaining[:idx] + remaining[idx + 1 :]
                    self._dfs(rest, s1 if idx else s0, new_acc)
            finally:
                self._unvisit(token)


class _FastSearchRun(_SearchRunBase):
    """The allocation-light hot path: one traversal for every objective.

    The remaining-jobs set is the problem's job tuple plus two flat index
    arrays (``_nxt``/``_prv``) linking the un-placed indices in heuristic
    order, with sentinel ``n``: choosing a job unlinks its index (O(1)),
    backtracking relinks it (O(1)), and no per-level list is ever built.
    The relative order of the remaining jobs — which defines what counts
    as a discrepancy — is preserved exactly, so the traversal visits the
    same (job, position) sequence as the reference engine.  Placements go
    through :class:`~repro.core.profile.SearchProfile.place`/``unplace``:
    one call per visit, no token objects, one forward walk.

    Everything per node is addressed by the job's dense index (see
    ``docs/performance.md``, "Delta scoring"):

    - nodes and planning runtimes come from flat
      :class:`~repro.core.deltascore.JobArrays` columns — no ``Job``
      attribute reads or ``job_id``-keyed dict lookups per visit;
    - the objective is one accumulator tuple threaded down the recursion
      through ``fold(acc, i, start)`` (:func:`_index_strategy`), bound
      once per search to the paper's two levels or to
      ``problem.evaluator``; backtracking drops the callee's tuple, so
      the float association order is *exactly* the reference fold's;
    - leaves and bounds compare raw tuples (``acc < best``, which is what
      both score types' ``__lt__`` do); a score object is built only when
      the incumbent is replaced;
    - the path is a pair of preallocated arrays (``_path_i``/``_path_s``)
      written at the current depth — every leaf sits at depth n, so
      backtracking never needs to pop them;
    - heuristic-completion chains never branch, so they walk ``_nxt``
      without unlinking and undo with one ``rollback``; when nothing can
      observe the difference (``_batched``) a whole chain commits through
      :meth:`SearchProfile.place_run_fold`, which folds the two levels in
      the placement loop itself and is accounted for once;
    - a subtree that cannot win is counted, not placed
      (``_count_dominated``): with no job submitted after ``now`` both
      levels only grow along a path, so once a node's partial levels are
      not below the incumbent's (``_cut``) no leaf under it improves, and
      ``_count`` replays only its node accounting — at ``_dfs``'s entry,
      and in ``place_run_fold`` at the first such step of a chain;
    - so is a subtree that the longest-waiting job already condemns: at a
      node with children, ``_wait_bound`` finds the oldest unplaced job's
      earliest fit on the partial profile, which placing more jobs can
      only delay, and when its excess wait lifts level 1 above the
      incumbent's no leaf below can win.
    """

    def __init__(self, problem: SearchProblem, *args: Any) -> None:
        super().__init__(problem, *args)
        self.profile = problem.profile.search_view()
        n = len(problem.jobs)
        self._jobs = problem.jobs
        self._now = problem.now
        self._head = n
        self._nxt = list(range(1, n + 1)) + [0]
        self._prv = [n] + list(range(0, n))
        self._path_i: list[int] = [0] * n
        self._path_s: list[float] = [0.0] * n
        ja = problem.job_arrays()
        self._nodes, self._runtime = ja.nodes, ja.runtime
        # ``place`` commits what it is given; the reference profile refuses
        # a non-positive duration, so refuse it here, once per search.
        check_positive("duration", min(ja.runtime, default=1.0))
        self._acc0, self._fold, self._score_of, self._lower = _index_strategy(
            problem, ja
        )
        #: ``place_run_fold``'s arguments between the run and the accumulator.
        self._run_args = (
            ja.nodes, ja.runtime, problem.now, self._path_s, ja.submit, ja.denom, problem.omega
        )
        self._best_acc: tuple[float, ...] | None = None
        # Batching is invisible only when nothing looks between two steps
        # of a chain: pruning bounds every step, the sanitizer checks every
        # mutation, and an evaluator's terms are not the two
        # ``place_run_fold`` folds.
        self._batched = (
            problem.evaluator is None
            and not self.prune
            and not self.profile.sanitizing
        )
        # Counting a dominated subtree is exact when every wait is >= 0
        # (starts are >= now); ``_cut`` stays +inf, never reached, otherwise.
        self._count_dominated = self._batched and max(
            ja.submit, default=problem.now
        ) <= problem.now
        self._cut: tuple[float, ...] = (inf, inf)
        #: ``_wait_bound``'s jobs by submit time (ties by index), and which
        #: of them ``_dfs`` has placed (chains set no flag).
        self._by_submit = sorted(range(n), key=ja.submit.__getitem__)
        self._placed = [False] * n
        self._submit, self._omega = ja.submit, problem.omega

    def _iterate(self, s: int) -> None:
        self._dfs(len(self._jobs), s, self._acc0, 0)

    def _leaf(self, acc: tuple[float, ...]) -> None:
        """Leaf evaluation off the accumulator and the path arrays.

        A leaf sits at the full job count — every complete schedule places
        every job — so the path arrays are exactly the schedule.  The
        score, order and starts are only materialised on improvement.
        """
        self.leaves_evaluated += 1
        best = self._best_acc
        if best is not None:
            if not acc < best:
                return
            self.improved_after_first = True
        self._best_acc = acc
        if self._count_dominated:
            self._cut = acc
        jobs = self._jobs
        self.best_score = score = self._score_of(acc, len(jobs))
        self.best_order = order = tuple([jobs[i] for i in self._path_i])
        self.best_starts = {job.job_id: s for job, s in zip(order, self._path_s)}
        if self.anytime is not None:
            self.anytime.append((self.nodes_visited, score))

    def _prune_child(self, acc: tuple[float, ...], left: int) -> bool:
        """Branch-and-bound: can this partial schedule still beat the best?"""
        best = self._best_acc
        return best is not None and not self._lower(acc, left) < best

    def _chain(self, m: int, acc: tuple[float, ...], d: int) -> None:
        """Heuristic completion: the ``m`` remaining jobs first-child all
        the way down, then the leaf.

        Both algorithms bottom out here — DDS below its discrepancy level
        and LDS once its discrepancy budget is spent — and these chains
        carry most of the node visits at practical budgets.  Batched, the
        placements commit through ``place_run_fold`` under one
        ``checkpoint``/``rollback`` bracket instead of ``m`` undo frames,
        the tail's objective terms folded in the same loop.
        """
        if m == 0:
            self._leaf(acc)
            return
        if not self._batched:
            self._chain_per_node(m, acc, d)
            return
        # The whole chain commits as one batch with accounting applied
        # once.  Mirrors ``_check_budget`` exactly: no limit, or the first
        # leaf still pending, allows everything.
        if self.node_limit is not None and self.leaves_evaluated:
            left = self.node_limit - self.nodes_visited
            if left < m:
                # Truncated chain: the placements would be rolled back
                # unread (no leaf is reached, starts are never consulted),
                # so only the node accounting is observable.  Commit it and
                # stop exactly where the per-node sequence stops: ``left``
                # placements visited, the next check raises.
                if left > 0:
                    self.nodes_visited += left
                raise _StopSearch
        nxt, path_i = self._nxt, self._path_i
        i = self._head
        for p in range(d, d + m):
            i = nxt[i]
            path_i[p] = i
        profile = self.profile
        ck = profile.checkpoint()
        try:
            self.nodes_visited += m
            # Positional, not ``*``-unpacked: a starred call leaves the
            # interpreter's inlined call path and costs ~3% of a month.
            nodes_a, rt_a, now, path_s, submit, denom, omega = self._run_args
            cut_exc, cut_slow = self._cut
            leaf = profile.place_run_fold(
                path_i, d, m, nodes_a, rt_a, now, path_s, submit, denom, omega,
                acc[0], acc[1], cut_exc, cut_slow,
            )
            if leaf is None:  # cut mid-chain: the leaf is counted, not scored
                self.leaves_evaluated += 1
            else:
                self._leaf(leaf)
        finally:
            profile.rollback(ck)

    def _chain_per_node(self, m: int, acc: tuple[float, ...], d: int) -> None:
        """The chain one visit at a time, for the cases batching must not
        paper over (see ``_batched``).  Node accounting, budget checks,
        pruning and the leaf are exactly the recursive engine's; still
        unlink-free, and undo is one rollback."""
        nxt = self._nxt
        nodes_a, rt_a = self._nodes, self._runtime
        place = self.profile.place
        path_i, path_s = self._path_i, self._path_s
        fold, now = self._fold, self._now
        prune = self.prune
        i = self._head
        p, end = d, d + m
        ck = self.profile.checkpoint()
        try:
            while p < end:
                self._check_budget()
                i = nxt[i]
                self.nodes_visited += 1
                start = place(nodes_a[i], rt_a[i], now)
                path_i[p] = i
                path_s[p] = start
                acc = fold(acc, i, start)
                p += 1
                if prune and self._prune_child(acc, end - p):
                    return
            self._leaf(acc)
        finally:
            self.profile.rollback(ck)

    def _count(self, m: int, s: int) -> None:
        """A subtree none of whose leaves can improve on the incumbent:
        ``_dfs``'s walk with nothing placed or folded — the same budget
        check per interior child and, at each chain, ``_chain``'s clamp
        and one leaf per full chain."""
        rule = child_rule(self._lds, s, m)
        if rule is None:
            if m and self.node_limit is not None:
                left = self.node_limit - self.nodes_visited
                if left < m:
                    if left > 0:
                        self.nodes_visited += left
                    raise _StopSearch
            self.nodes_visited += m
            self.leaves_evaluated += 1
            return
        lo, s0, s1 = rule
        for rank in range(lo, m):
            self._check_budget()
            self.nodes_visited += 1
            self._count(m - 1, s1 if rank else s0)

    def _wait_bound(self, exc: float) -> float:
        """A lower bound on level 1 of every leaf below a ``_dfs`` node
        whose partial level 1 is ``exc`` (``docs/performance.md``, "The
        longest-waiting job's bound").

        The oldest unplaced job ``w`` starts in every leaf below at or
        after its earliest fit on the current profile, which only loses
        capacity further down; ``w``'s excess term and the sum are IEEE
        operations monotone in each argument, and every other term adds
        ``>= 0``.  So each leaf's level 1 is at least what this returns.
        """
        placed = self._placed
        for w in self._by_submit:
            if not placed[w]:
                break
        est = self.profile.earliest_fit(self._nodes[w], self._runtime[w], self._now)
        e = (est - self._submit[w]) - self._omega
        return exc + e if e > 0.0 else exc

    def _dfs(self, m: int, s: int, acc: tuple[float, ...], d: int) -> None:
        """The one DFS: ``child_rule`` says which ranks to take and what
        each child inherits; ``m`` jobs remain below depth ``d``.  A node
        is counted, not walked, when its partial levels are not below the
        incumbent's or, if it has children, when ``_wait_bound`` puts
        level 1 above the incumbent's."""
        if self._count_dominated and not acc < self._cut:
            self._count(m, s)
            return
        rule = child_rule(self._lds, s, m)
        if rule is None:
            self._chain(m, acc, d)
            return
        lo, s0, s1 = rule
        if self._count_dominated and lo < m and self._wait_bound(acc[0]) > self._cut[0]:
            self._count(m, s)
            return
        placed = self._placed
        nxt, prv = self._nxt, self._prv
        nodes_a, rt_a = self._nodes, self._runtime
        place, unplace = self.profile.place, self.profile.unplace
        path_i, path_s = self._path_i, self._path_s
        fold, now = self._fold, self._now
        prune = self.prune
        check_budget = self._check_budget
        i = nxt[self._head]
        for _ in range(lo):
            i = nxt[i]
        for rank in range(lo, m):
            check_budget()
            pi, ni = prv[i], nxt[i]
            nxt[pi] = ni
            prv[ni] = pi
            placed[i] = True
            self.nodes_visited += 1
            start = place(nodes_a[i], rt_a[i], now)
            path_i[d] = i
            path_s[d] = start
            try:
                new_acc = fold(acc, i, start)
                if not prune or not self._prune_child(new_acc, m - 1):
                    self._dfs(m - 1, s1 if rank else s0, new_acc, d + 1)
            finally:
                unplace()
                placed[i] = False
                nxt[pi] = i
                prv[ni] = i
            i = ni


def _search_compiled(
    problem: SearchProblem,
    algorithm: str,
    node_limit: int | None,
    prune: bool,
    record_anytime: bool = False,
) -> SearchResult:
    """``engine="compiled"``: the C kernel when it can give this search's
    exact result, the fast engine otherwise (same bits, python speed)."""
    raw = ckernel.run_kernel(problem, algorithm, node_limit, prune, record_anytime)
    if raw is None:
        return _FastSearchRun.search(
            problem, algorithm, node_limit, prune, record_anytime
        )
    (
        b_exc,
        b_slow,
        b_d,
        idxs,
        starts,
        nodes_visited,
        leaves,
        iterations,
        limit_hit,
        improved,
        anytime,
    ) = raw
    jobs = problem.jobs
    order = tuple([jobs[i] for i in idxs])
    if anytime is not None:
        anytime = [(nv, ScheduleScore(exc, slow, d)) for nv, exc, slow, d in anytime]
    return SearchResult(
        best_order=order,
        best_starts={job.job_id: start for job, start in zip(order, starts)},
        best_score=ScheduleScore(b_exc, b_slow, b_d),
        nodes_visited=nodes_visited,
        leaves_evaluated=leaves,
        iterations_started=iterations,
        limit_hit=bool(limit_hit),
        improved_after_first=bool(improved),
        anytime=anytime,
    )


#: The ``DiscrepancySearch.engine`` knob: name -> ``(problem, algorithm,
#: node_limit, prune, record_anytime) -> SearchResult``.
_ENGINES: dict[str, Callable[..., SearchResult]] = {
    "fast": _FastSearchRun.search,
    "reference": _ReferenceSearchRun.search,
    "compiled": _search_compiled,
}
