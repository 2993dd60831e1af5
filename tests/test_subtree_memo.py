"""The compiled kernel's subtree entries are invisible (``docs/performance.md``,
"Subtrees that repeat").

Under ``count_dominated`` (``prune`` off, no job submitted after ``now``),
``_ckernel.c`` records in its chain memo each DFS node with children that
it walked to completion — key: profile length, depth ``d >= 2``,
child-window state ``st`` and the path's ``(job, start)`` pairs — with the
partial ``(exc, slow)`` it was walked from.  A later node with the same key
whose partial sums are componentwise no smaller is counted (``ck_count``),
not walked: the walk left every leaf below it no better than the
incumbent, which only falls, and the fold is monotone per component in
its starting accumulator (``tests/test_deltascore.py``).

Python has no such memo, so the nodes C counts this way are found by
modelling the rule around the fast engine's ``_dfs``
(:func:`_counted_repeats`); the model also runs the rule itself in python,
counting those nodes with ``_count``, and must leave every result as it
was.  Then, on ``tests/test_chain_memo.py``'s instance families and its
40-job queue at a 200K-node budget, the compiled fingerprint, anytime trace
included, is the fast engine's, and the reference's up to 7 jobs: under DDS
and LDS, with ``prune`` on and off, exhaustive and at budgets that stop
inside a counted repeat.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.core.ckernel import have_compiled
from repro.core.search import DiscrepancySearch, _FastSearchRun, child_rule
from repro.util.sanitize import sanitized
from tests.oracles import NOW, InstanceSpec, fingerprint
from tests.test_chain_memo import MEDIUM, SMALL, _deep_queue, _run

pytestmark = pytest.mark.skipif(
    not have_compiled(), reason="the compiled kernel is not built"
)


@pytest.fixture(autouse=True)
def _unsanitized():
    """Unsanitized, as in ``tests/test_chain_memo.py``: the kernel stands
    down under the sanitizer, and so does ``count_dominated``."""
    with sanitized(False):
        yield


def _rounding_orders() -> InstanceSpec:
    """Five 1-node jobs that all start now, in any order: every leaf sums
    the same terms, and the orders differ only in how they round.  Two
    paths to one state then reach it with level 1 an ulp apart and level
    2 the other way, a later term absorbs the ulp, and the path that was
    lexicographically behind holds the better leaf.  Found by a random
    search and shrunk; a memo that compares partial sums
    lexicographically, not componentwise, gets it wrong under DDS and
    LDS (``tests/test_deltascore.py``,
    ``test_a_lexicographic_compare_is_not_enough``, has the arithmetic)."""
    jobs = (
        (12060.177033372333, 1, 6386.0),
        (14387.800729066314, 1, 514.29),
        (14397.3619, 1, 60.0),
        (13107.602, 1, 60.0),
        (11994.0, 1, 60.0),
    )
    return InstanceSpec(
        capacity=5,
        jobs=jobs,
        segments=((NOW, 5),),
        omega=2.2193187260996474,
        heuristic="lxf",
    )


#: ``tests/test_chain_memo.py``'s small instances and one of this file's.
SMALL_CASES = [*SMALL, pytest.param(_rounding_orders(), id="rounding_orders")]


def _key(run: _FastSearchRun, m: int, s: int, acc, d: int):
    """The memo key the kernel looks up at this ``_dfs`` node, or ``None``
    where it asks nothing: above depth 2, outside ``count_dominated``, at a
    node counted by the cut or the wait bound, a chain or a node with no
    child, or a path with an inexact snap (a start or end that is not a
    breakpoint of its own value)."""
    if d < 2 or not run._count_dominated or not acc < run._cut:
        return None
    rule = child_rule(run._lds, s, m)
    if rule is None or rule[0] >= m:
        return None
    if run._wait_bound(acc[0]) > run._cut[0]:
        return None
    segments = run.profile.segments()
    times = {t for t, _ in segments}
    pairs = [(run._path_i[q], run._path_s[q]) for q in range(d)]
    for i, start in pairs:
        if start not in times or start + run._runtime[i] not in times:
            return None
    return len(segments), d, s, frozenset(pairs)


@contextmanager
def _counted_repeats(count: bool = False):
    """Model the kernel's subtree entries around ``_FastSearchRun._dfs``
    while the block runs; yields the ``(first, last)`` node spans of the
    nodes the kernel counts as repeats, each once its subtree is done.

    A node the kernel walks to completion records its partial sums, unless
    its key holds a pair componentwise no greater; a node whose key holds
    one componentwise no greater than its own is a repeat.  Inside a repeat
    the kernel looks nothing up and records nothing, so neither does the
    model.  ``count=True`` counts a repeat with ``_count`` as the kernel
    does; by default python walks it, so the spans are where a walk would
    have been."""
    walked: dict = {}
    spans: list[tuple[int, int]] = []
    inside = 0
    real = _FastSearchRun._dfs

    def dfs(self, m, s, acc, d):
        nonlocal inside
        key = None if inside else _key(self, m, s, acc, d)
        if key is None:
            return real(self, m, s, acc, d)
        prior = walked.get(key)
        if prior is not None and acc[0] >= prior[0] and acc[1] >= prior[1]:
            first = self.nodes_visited
            inside += 1
            try:
                if count:
                    self._count(m, s)
                else:
                    real(self, m, s, acc, d)
            finally:
                inside -= 1
            spans.append((first, self.nodes_visited))
            return None
        real(self, m, s, acc, d)
        if prior is None or (acc[0] <= prior[0] and acc[1] <= prior[1]):
            walked[key] = acc
        return None

    _FastSearchRun._dfs = dfs
    try:
        yield spans
    finally:
        _FastSearchRun._dfs = real


def _fast(problem, algorithm, node_limit, prune):
    return DiscrepancySearch(
        algorithm, node_limit=node_limit, prune=prune, engine="fast", record_anytime=True
    ).search(problem)


def _repeat_budgets(problem, algorithm, node_limit=None) -> list[int]:
    """Budgets that stop inside a counted repeat of the prune-off search
    at ``node_limit``: one after its first node, its midpoint and one
    before its last, for the first, middle and last repeat of at least
    two nodes."""
    with _counted_repeats() as spans:
        _fast(problem, algorithm, node_limit, False)
    wide = [(a, b) for a, b in spans if b - a >= 2]
    picked = [wide[k] for k in (0, len(wide) // 2, -1)] if wide else []
    return sorted({x for a, b in picked for x in (a + 1, (a + b) // 2, b - 1)})


#: The instances where counting is on, with the budget the searches run
#: at: exhaustive up to 7 jobs, 20K nodes past that.
REPEATING = [
    pytest.param(p.values[0], limit, id=p.id)
    for family, limit in ((SMALL_CASES, None), (MEDIUM, 20_000))
    for p in family
    if not p.id.startswith("submitted_later")
]


@pytest.mark.parametrize("spec,limit", REPEATING)
@pytest.mark.parametrize("algorithm", ["dds", "lds"])
def test_the_model_finds_repeats_and_counting_them_changes_nothing(spec, limit, algorithm):
    """The rule in python: counting every modelled repeat with ``_count``
    leaves the fast engine's fingerprint as it was, at the full budget and
    at budgets inside a repeat, and the DDS searches do repeat."""
    problem = spec.to_problem()
    budgets = _repeat_budgets(problem, algorithm, limit)
    if algorithm == "dds":
        assert budgets, "no subtree repeats under DDS"
    for node_limit in (limit, *budgets):
        want = fingerprint(_fast(problem, algorithm, node_limit, False))
        with _counted_repeats(count=True):
            got = fingerprint(_fast(problem, algorithm, node_limit, False))
        assert got == want, (spec, algorithm, node_limit)


@pytest.mark.parametrize("spec", SMALL_CASES)
@pytest.mark.parametrize("algorithm", ["dds", "lds"])
@pytest.mark.parametrize("prune", [False, True])
def test_compiled_is_fast_and_reference_where_subtrees_repeat(spec, algorithm, prune):
    """Exhaustive and at budgets inside a counted repeat (found with
    ``prune`` off; with it on the same budgets stop elsewhere)."""
    problem = spec.to_problem()
    for node_limit in (None, *_repeat_budgets(problem, algorithm)):
        want = _run(problem, algorithm, node_limit, prune, "reference")
        assert _run(problem, algorithm, node_limit, prune, "fast") == want
        got = _run(problem, algorithm, node_limit, prune, "compiled")
        assert got == want, (spec, algorithm, prune, node_limit)


@pytest.mark.parametrize("spec", MEDIUM)
@pytest.mark.parametrize("algorithm", ["dds", "lds"])
@pytest.mark.parametrize("prune", [False, True])
def test_compiled_is_fast_where_larger_subtrees_repeat(spec, algorithm, prune):
    problem = spec.to_problem()
    for node_limit in (20_000, *_repeat_budgets(problem, algorithm, 20_000)):
        want = _run(problem, algorithm, node_limit, prune, "fast")
        got = _run(problem, algorithm, node_limit, prune, "compiled")
        assert got == want, (spec, algorithm, prune, node_limit)


@pytest.mark.parametrize("algorithm", ["dds", "lds"])
def test_compiled_is_fast_on_a_deep_queue_whose_memo_fills(algorithm):
    """40 jobs at 200K nodes: subtree and chain entries share the memo
    until it reaches its cap, and its table grows while walks that will
    record an entry are in progress.  At the full budget and at budgets
    that stop inside repeats the model finds below it (the model has no
    cap, so some of those the kernel walks)."""
    problem = _deep_queue().to_problem()
    budgets = _repeat_budgets(problem, algorithm, node_limit=200_000)
    assert budgets
    for node_limit in (200_000, *budgets):
        want = _run(problem, algorithm, node_limit, False, "fast")
        got = _run(problem, algorithm, node_limit, False, "compiled")
        assert got == want, (algorithm, node_limit)
