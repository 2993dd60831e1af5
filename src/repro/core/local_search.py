"""Local-search improvement of a discrepancy-search schedule.

The paper's future work proposes "combining complete search algorithms
with local search, to possibly improve the solution" (citing Crawford).
This module implements that hybrid: starting from the best order the
tree search found, hill-climb over **adjacent transpositions** of the
consideration order, accepting the first improving neighbour, until a
local optimum or the node budget runs out.

Node accounting stays commensurable with the tree search: evaluating one
candidate order costs one node visit per job placed, exactly what the
same schedule would cost as a root-to-leaf path — which it is: a candidate
is scored as the heuristic path of a search, by the tree search's engine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.core.search import (
    _ENGINES,
    DiscrepancySearch,
    SearchProblem,
    SearchResult,
    resolve_runtimes,
)
from repro.simulator.job import Job

#: What a direct call evaluates through: ``DiscrepancySearch()``'s engine.
_DEFAULT_ENGINE = _ENGINES[DiscrepancySearch.engine]


@dataclass
class LocalSearchResult:
    """Outcome of one hill-climbing pass."""

    best_order: tuple[Job, ...]
    best_starts: dict[int, float]
    best_score: object
    nodes_visited: int
    candidates_evaluated: int
    improved: bool
    local_optimum: bool  # True if the climb ended with no improving neighbour


def evaluate_order(
    problem: SearchProblem,
    order: Sequence[Job],
    rt: dict[int, float] | None = None,
    engine: Callable[..., SearchResult] = _DEFAULT_ENGINE,
) -> tuple[dict[int, float], object]:
    """Place ``order`` on the problem's profile and score it: ``(starts, score)``.

    The heuristic path of a search always completes, whatever the node
    limit (paper §2.2), so this *is* iteration 0 of a search whose jobs
    are ``order``: ``engine`` (a ``repro.core.search._ENGINES`` entry) runs
    its ordinary chain and its ordinary input checks over the reordered
    problem, whose ``arrays`` it rebuilds (they described the old order).
    """
    rt = rt if rt is not None else resolve_runtimes(problem)
    reordered = replace(problem, jobs=tuple(order), runtimes=rt, arrays=None)
    result = engine(reordered, "dds", 1, False)
    return result.best_starts, result.best_score


def hill_climb(
    problem: SearchProblem,
    order: Sequence[Job],
    node_budget: int | None = None,
    engine: Callable[..., SearchResult] = _DEFAULT_ENGINE,
) -> LocalSearchResult:
    """First-improvement hill climbing over adjacent transpositions.

    ``order`` is the starting consideration order (typically the tree
    search's best).  Each candidate evaluation costs ``len(order)`` node
    visits against ``node_budget`` (``None`` = unlimited) and runs on
    ``engine``, the one the tree search used.
    """
    n = len(order)
    if n == 0:
        return LocalSearchResult((), {}, None, 0, 0, False, True)
    rt = resolve_runtimes(problem)
    current = list(order)
    best_starts, best_score = evaluate_order(problem, current, rt, engine)
    candidates = 1
    improved = False

    def budget_left() -> bool:
        return node_budget is None or (candidates + 1) * n <= node_budget

    sweeping = True
    while sweeping:
        sweeping = False
        for i in range(n - 1):
            if not budget_left():
                break
            current[i], current[i + 1] = current[i + 1], current[i]
            starts, score = evaluate_order(problem, current, rt, engine)
            candidates += 1
            if score < best_score:
                best_starts, best_score = starts, score
                improved = sweeping = True
                break  # first improvement: sweep again from the front
            current[i], current[i + 1] = current[i + 1], current[i]  # undo

    return LocalSearchResult(
        tuple(current), best_starts, best_score, candidates * n, candidates, improved,
        local_optimum=budget_left(),
    )
