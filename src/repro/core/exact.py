"""Exact small-instance solver: the optimality oracle for the search.

Every engine in :mod:`repro.core.search` is validated against *another
heuristic engine* — bit-identity proves they agree, not that any of them
lands near the best achievable schedule.  This module closes that gap: it
computes the **provably optimal** objective value over the exact candidate
space the discrepancy search explores, so DDS/LDS results can be scored as
a *gap to optimal* instead of a gap to each other (the ``repro optgap``
pipeline and ``tests/test_engine_conformance.py`` both build on it).

The candidate space
-------------------
A search engine candidate is a *permutation* of the waiting jobs, each job
placed at its earliest feasible start on the availability profile given
the placements before it (list scheduling along the path, paper §2.2).
The solver enumerates that same space — placements go through the same
:meth:`~repro.core.profile.AvailabilityProfile.search_view` fast path and
the same :func:`~repro.core.search.build_strategy` scoring closures as the
engines, so a leaf's score here is bit-for-bit the score any engine would
assign the same permutation.  Consequences, both load-bearing for the
differential harness:

- ``solve_exact(p).best_score <= engine.search(p).best_score`` for every
  engine at every node budget (the engines visit a subset of the same
  leaf set); and
- an exhaustive search (``node_limit=None``) returns *exactly*
  ``solve_exact(p).best_score`` — the minimum of the identical float set.

For the paper's two-level objective this permutation-space optimum is also
the optimum over **all** feasible schedules: any feasible schedule, when
its jobs are re-placed earliest-fit in start-time order, starts every job
no later than before (at any instant ``τ`` past a job's new window, a
left-shifted predecessor can only be running if it was already running at
``τ`` in the original schedule), and both objective levels are
non-decreasing in each start.  The same argument covers any
:class:`~repro.core.criteria.CriteriaEvaluator` whose per-job terms are
non-decreasing in the start time; criteria that reward waiting (e.g.
:class:`~repro.core.criteria.FairshareDelay`) keep the permutation-space
guarantee only.

Backends
--------
``"bnb"`` (default)
    Depth-first branch-and-bound over permutations in heuristic child
    order.  Pruning uses the *accumulated* partial score only — every
    criteria term is ``>= 0`` and float addition of a non-negative term
    never decreases the accumulator, so the bound is sound down to the
    last bit (the ``+1``-per-unplaced-job slowdown bound the engines'
    optional ``prune=True`` uses can overshoot a leaf by an ulp under
    re-rounding, which an *oracle* must never do).
``"brute"``
    Plain enumeration of all ``n!`` permutations, no pruning.  Exists to
    cross-check ``"bnb"`` (see ``tests/test_exact.py``); also the
    fallback semantics reference.

Instances are small by construction: ``solve_exact`` refuses more than
``max_jobs`` (default 10) waiting jobs — the tree has ``n!`` leaves and
this is an oracle, not a scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.search import Score, SearchProblem, build_strategy, resolve_runtimes
from repro.simulator.job import Job

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.core.profile import SearchProfile

#: Hard ceiling on ``max_jobs`` — beyond this even branch-and-bound is
#: factorially hopeless in pure Python.
MAX_EXACT_JOBS = 12


@dataclass
class ExactResult:
    """Outcome of one exact solve.

    ``best_score`` is the provably minimal score over the candidate space
    (see module docstring); ``best_order``/``best_starts`` realise it.
    Among equal-scoring permutations the solver keeps the first one in
    lexicographic heuristic order — candidates that merely *tie* the
    incumbent never replace it, mirroring the engines' keep-first rule.
    ``nodes_visited`` counts one visit per placement, the same unit the
    engines budget with, so oracle cost is commensurable with search cost.
    """

    best_order: tuple[Job, ...]
    best_starts: dict[int, float]
    best_score: Score
    nodes_visited: int
    leaves_evaluated: int
    backend: str
    proven_optimal: bool = True


def solve_exact(
    problem: SearchProblem,
    max_jobs: int = 10,
    backend: str = "auto",
) -> ExactResult:
    """The provably optimal schedule for a small decision point.

    Parameters
    ----------
    problem:
        The same :class:`~repro.core.search.SearchProblem` the engines
        take (jobs already in heuristic order).
    max_jobs:
        Refuse instances with more waiting jobs than this (factorial
        blow-up guard); capped at ``MAX_EXACT_JOBS``.
    backend:
        ``"auto"`` (→ ``"bnb"``), ``"bnb"`` or ``"brute"``.
    """
    n = len(problem.jobs)
    if max_jobs < 1 or max_jobs > MAX_EXACT_JOBS:
        raise ValueError(f"max_jobs must be in [1, {MAX_EXACT_JOBS}]")
    if n > max_jobs:
        raise ValueError(
            f"exact solve over {n} jobs refused (max_jobs={max_jobs}): "
            "the candidate space has n! leaves; raise max_jobs only for "
            "instances you can afford to enumerate"
        )
    if backend == "auto":
        backend = "bnb"
    if backend not in ("bnb", "brute"):
        raise ValueError(
            f"unknown backend {backend!r}; choose from auto, bnb, brute"
        )
    if n == 0:
        acc0, _extend, score_of, _lower = build_strategy(
            problem, resolve_runtimes(problem)
        )
        return ExactResult((), {}, score_of(acc0, 0), 0, 1, backend)
    run = _ExactRun(problem, prune=(backend == "bnb"))
    run.solve()
    assert run.best_score is not None  # n >= 1: some leaf always evaluated
    return ExactResult(
        best_order=run.best_order,
        best_starts=run.best_starts,
        best_score=run.best_score,
        nodes_visited=run.nodes_visited,
        leaves_evaluated=run.leaves_evaluated,
        backend=backend,
    )


class _ExactRun:
    """One depth-first enumeration over all permutations.

    The remaining-jobs set is the same array-threaded linked list the fast
    engine uses (O(1) unlink/relink, no per-level list allocation); the
    profile is the undo-stack :class:`~repro.core.profile.SearchProfile`.
    With ``prune=True`` a subtree is skipped iff its *accumulated* partial
    score already fails to beat the incumbent — see the module docstring
    for why the bound deliberately ignores the unplaced jobs.
    """

    def __init__(self, problem: SearchProblem, prune: bool) -> None:
        self.problem = problem
        self.prune = prune
        self._rt = resolve_runtimes(problem)
        self._acc0, self._extend, self._score_of, _lower = build_strategy(
            problem, self._rt
        )
        self.profile: SearchProfile = problem.profile.search_view()
        n = len(problem.jobs)
        self._jobs = problem.jobs
        self._head = n
        self._nxt = list(range(1, n + 1)) + [0]
        self._prv = [n] + list(range(0, n))
        self._prefix: list[tuple[Job, float]] = []

        self.nodes_visited = 0
        self.leaves_evaluated = 0
        self.best_score: Score | None = None
        self.best_order: tuple[Job, ...] = ()
        self.best_starts: dict[int, float] = {}

    def solve(self) -> None:
        self._dfs(len(self._jobs), self._acc0)

    def _dfs(self, m: int, acc: tuple[float, ...]) -> None:
        if m == 0:
            self.leaves_evaluated += 1
            score = self._score_of(acc, len(self._prefix))
            if self.best_score is None or score < self.best_score:
                self.best_score = score
                self.best_order = tuple(job for job, _ in self._prefix)
                self.best_starts = {
                    job.job_id: start for job, start in self._prefix
                }
            return
        nxt, prv = self._nxt, self._prv
        jobs, rt = self._jobs, self._rt
        place, unplace = self.profile.place, self.profile.unplace
        prefix, extend = self._prefix, self._extend
        now = self.problem.now
        i = nxt[self._head]
        for _pos in range(m):
            job = jobs[i]
            pi, ni = prv[i], nxt[i]
            nxt[pi] = ni
            prv[ni] = pi
            self.nodes_visited += 1
            start = place(job.nodes, rt[job.job_id], now)
            prefix.append((job, start))
            try:
                new_acc = extend(acc, job, start)
                if not self.prune or not self._pruned(new_acc, m - 1):
                    self._dfs(m - 1, new_acc)
            finally:
                prefix.pop()
                unplace()
                nxt[pi] = i
                prv[ni] = i
            i = ni

    def _pruned(self, acc: tuple[float, ...], left: int) -> bool:
        """Can no completion of this partial schedule beat the incumbent?

        The bound is the partial score itself: every later placement folds
        a term ``>= 0`` into each level through a monotone accumulator
        (sum or max), and ``fl(a + b) >= a`` whenever ``b >= 0``, so every
        completed leaf under this node scores ``>=`` the partial score —
        *in float arithmetic*, not just in exact arithmetic.  Ties do not
        prune conservatively wrong: a leaf equal to the incumbent would
        not have replaced it anyway (keep-first rule).
        """
        if self.best_score is None:
            return False
        return not (self._score_of(acc, 0) < self.best_score)

