"""The LDS/DDS child-window rule against its specification.

``repro.core.search.child_rule`` is the one place the two algorithms
differ; every engine's DFS is that rule plus place/score/recurse (the C
kernel writes it inline).  Two layers hold it to
:mod:`repro.core.search_tree`'s pure permutation generators:

- the rule alone, driven by a generic enumerator, must yield each
  iteration's permutations leaf for leaf;
- every engine, on both objective forms (the built-in two-level fold
  and a custom evaluator's ``extend``, which keeps the fast engine's
  chains per node), at **every** node
  budget from 1 to the exhaustive total, must report the accounting and
  the incumbent of a model computed from those generators alone — which
  pins the traversal *order*, not just its totals, since a budget that
  stops between two leaves tells them apart.

``prune=False`` only: pruned accounting depends on scores and stays the
conformance fuzzer's job (``test_engine_conformance.py``).
"""

from __future__ import annotations

import math

import pytest

from repro.core.criteria import paper_objective
from repro.core.search import DiscrepancySearch, child_rule, root_state
from repro.core.search_tree import (
    dds_iteration_paths,
    lds_iteration_paths,
    max_discrepancies,
)
from tests.oracles import CONFORMANCE_ENGINES, build_problem, spec_score, with_criteria

_GENERATORS = {"lds": lds_iteration_paths, "dds": dds_iteration_paths}


def _rule_paths(lds, items, iteration):
    """Every permutation the rule allows from the root of ``iteration``."""

    def rec(remaining, s):
        rule = child_rule(lds, s, len(remaining))
        if rule is None:  # heuristic child only, all the way down
            yield remaining
            return
        lo, s0, s1 = rule
        for rank in range(lo, len(remaining)):
            rest = remaining[:rank] + remaining[rank + 1 :]
            for tail in rec(rest, s1 if rank else s0):
                yield (remaining[rank], *tail)

    return rec(tuple(items), root_state(lds, iteration))


@pytest.mark.parametrize("algorithm", ["dds", "lds"])
@pytest.mark.parametrize("n", range(0, 7))
def test_rule_enumerates_each_iteration_leaf_for_leaf(algorithm, n):
    items = tuple(range(n))
    seen = []
    # Two iterations past the last one: they must come out empty too.
    for iteration in range(0, max_discrepancies(n) + 3):
        want = list(_GENERATORS[algorithm](items, iteration))
        assert list(_rule_paths(algorithm == "lds", items, iteration)) == want
        seen.extend(want)
    # Together the iterations are every permutation, each exactly once.
    assert len(seen) == len(set(seen)) == math.factorial(n)


def test_rule_windows_at_the_edges():
    # LDS: cap = max(0, m - 2) discrepancies fit below a child.
    assert child_rule(True, 0, 5) is None
    assert child_rule(True, 3, 5) == (0, 3, 2)
    assert child_rule(True, 4, 5) == (1, 4, 3)  # rank 0 could not spend 4
    assert child_rule(True, 5, 5)[0] == 5  # no child at all
    assert child_rule(True, 1, 1)[0] == 1  # one job left: no discrepancy
    # DDS: free above the forced level, forced at it, chain below.
    assert child_rule(False, 2, 5) == (0, 1, 1)
    assert child_rule(False, 0, 5) == (1, -1, -1)
    assert child_rule(False, 0, 1)[0] == 1  # one job left: no discrepancy
    assert child_rule(False, -1, 5) is None
    assert root_state(True, 0) == 0 and root_state(False, 0) == -1


# ----------------------------------------------------------------------
# Budget sweep: every engine, both objective forms, every L
# ----------------------------------------------------------------------
def _model(iterations, limit):
    """What a search over ``iterations`` — per iteration, the scored paths
    in DFS order — reports under node budget ``limit``.

    Each iteration is one DFS: consecutive paths keep their common prefix
    placed, every other placement is one visit, and the budget is checked
    before each visit but never before the first leaf.
    """
    nodes = leaves = started = 0
    best = None
    for paths in iterations:
        started += 1
        prev = ()
        for path, starts, score in paths:
            shared = 0
            while shared < len(prev) and prev[shared] is path[shared]:
                shared += 1
            for _ in range(shared, len(path)):
                if leaves and nodes >= limit:
                    return nodes, leaves, started, True, best
                nodes += 1
            leaves += 1
            if best is None or score < best[2]:
                best = (path, starts, score)
            prev = path
    return nodes, leaves, started, False, best


@pytest.mark.parametrize("form", ["two-level", "evaluator"])
@pytest.mark.parametrize("algorithm", ["dds", "lds"])
@pytest.mark.parametrize("n", range(0, 6))
def test_budget_sweep_matches_generator_model(n, algorithm, form):
    problem = build_problem("lxf", n_jobs=n)
    if form == "evaluator":
        problem = with_criteria(problem, paper_objective())
    iterations = [
        [
            (path, *spec_score(problem, path))
            for path in _GENERATORS[algorithm](problem.jobs, iteration)
        ]
        for iteration in range(0, max_discrepancies(n) + 1)
    ]
    total = _model(iterations, float("inf"))[0]
    for limit in range(1, total + 2):
        nodes, leaves, started, limit_hit, (order, starts, score) = _model(
            iterations, limit
        )
        for engine in CONFORMANCE_ENGINES:
            result = DiscrepancySearch(
                algorithm, node_limit=limit, engine=engine
            ).search(problem)
            got = (
                result.nodes_visited,
                result.leaves_evaluated,
                result.iterations_started,
                result.limit_hit,
                result.best_order,
                result.best_starts,
                result.best_score,
            )
            want = (nodes, leaves, started, limit_hit, order, starts, score)
            assert got == want, (engine, limit)
