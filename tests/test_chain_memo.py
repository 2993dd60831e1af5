"""The compiled kernel's chain memo is invisible (``docs/performance.md``,
"Chains that repeat").

DDS and LDS reach one partial schedule by several paths, and each path
then runs the same heuristic-completion chain.  ``_ckernel.c`` keeps, per
search, the starts a chain's placements got, keyed by the profile length,
the depth and the set of ``(job, start)`` pairs the DFS placed; a later
chain with the same key re-folds those starts instead of placing them.
The key is exact only when every DFS placement on the path landed exactly
(``tests/test_profile_properties.py`` holds that argument as a property),
so a path with an inexact snap neither looks up nor stores.

Nothing of it may show: the compiled engine's fingerprint, anytime trace
included, is the fast engine's on instances built so chain states repeat,
and the reference's where the reference is cheap enough:

- 1-node jobs that all fit now, so every order places them alike;
- jobs of one shape, so different sets leave the same starts;
- runtimes within ``TIME_EPS`` of each other, so paths snap inexactly;
- jobs submitted at ``now``, whose ties make a cached chain run out;
- a job submitted after ``now``, which turns counting off;
- a 40-job queue at a 200K-node budget, which fills the memo to its cap;

under DDS and LDS, with ``prune`` on and off, exhaustive and at budgets
that stop inside iterations 2 and 3.
"""

from __future__ import annotations

import pytest

from repro.core.ckernel import have_compiled
from repro.core.search import DiscrepancySearch
from repro.util.rng import RngStream
from repro.util.sanitize import sanitized
from repro.util.timeunits import HOUR, TIME_EPS
from tests.oracles import NOW, InstanceSpec, fingerprint

pytestmark = pytest.mark.skipif(
    not have_compiled(), reason="the compiled kernel is not built"
)


@pytest.fixture(autouse=True)
def _unsanitized():
    """Every search here runs unsanitized, also under ``REPRO_SANITIZE=1``:
    the kernel stands down under the sanitizer, and the near-``TIME_EPS``
    instances meet ROADMAP item 6's over-claimed segments, which the
    sanitizer rejects."""
    with sanitized(False):
        yield


#: Runtimes at most TIME_EPS apart: their ends snap onto each other.
_NEAR = (600.0, 600.0 + TIME_EPS / 2, 600.0 - TIME_EPS / 2, 600.0 + TIME_EPS)


def _spec(jobs, capacity, busy=0, omega=900.0, heuristic="lxf") -> InstanceSpec:
    segments = ((NOW, capacity - busy), (NOW + HOUR, capacity)) if busy else ((NOW, capacity),)
    return InstanceSpec(
        capacity=capacity,
        jobs=tuple(jobs),
        segments=segments,
        omega=omega,
        heuristic=heuristic,
    )


def _fits_now(n: int, seed: int) -> InstanceSpec:
    """n 1-node jobs on a machine with room for all of them now."""
    rng = RngStream(seed, "chain-memo-fits")
    jobs = [
        (NOW - float(rng.uniform(0, 3 * HOUR)), 1, float(rng.uniform(60, 2 * HOUR)))
        for _ in range(n)
    ]
    return _spec(jobs, capacity=n + 2)


def _same_shape(n: int, seed: int) -> InstanceSpec:
    """n jobs in two shapes on a machine that fits two of them at once."""
    rng = RngStream(seed, "chain-memo-shape")
    jobs = [
        (NOW - float(rng.uniform(0, 3 * HOUR)), 4 if k % 3 else 2, 1800.0 if k % 3 else 900.0)
        for k in range(n)
    ]
    return _spec(jobs, capacity=8, busy=2)


def _near_eps(n: int, seed: int) -> InstanceSpec:
    """Runtimes within TIME_EPS of each other, widths that make a job wait
    for the end of one of them."""
    rng = RngStream(seed, "chain-memo-eps")
    jobs = [
        (
            NOW - float(rng.uniform(0, 3 * HOUR)),
            int(rng.integers(1, 9)),
            _NEAR[int(rng.integers(0, len(_NEAR)))],
        )
        for _ in range(n)
    ]
    return _spec(jobs, capacity=8, busy=int(rng.integers(0, 4)), omega=60.0)


def _submitted_now(n: int, seed: int) -> InstanceSpec:
    """Some jobs submitted at ``now``: their level-2 terms are exactly 1,
    so the cut and ``prune`` tests meet ties that two orders of one set
    of placements round apart, and a chain can outrun the starts cached
    by another order (docs/performance.md, "Chains that repeat")."""
    rng = RngStream(seed, "chain-memo-now")
    jobs = [
        (
            NOW if rng.uniform(0, 1) < 0.4 else NOW - float(rng.uniform(0, 3 * HOUR)),
            int(rng.choice([1, 1, 2, 3])),
            float(rng.uniform(60, 2 * HOUR)),
        )
        for _ in range(n)
    ]
    return _spec(jobs, capacity=n, omega=float(rng.choice([900.0, 1e9])))


def _submitted_later(n: int, seed: int) -> InstanceSpec:
    """As :func:`_same_shape`, one job submitted after ``now``."""
    spec = _same_shape(n, seed)
    submit, nodes, runtime = spec.jobs[-1]
    return InstanceSpec(
        capacity=spec.capacity,
        jobs=spec.jobs[:-1] + ((NOW + 300.0, nodes, runtime),),
        segments=spec.segments,
        omega=spec.omega,
        heuristic=spec.heuristic,
    )


def _snapping_orders() -> InstanceSpec:
    """Five runtimes 1200 s ± TIME_EPS/2 on a 4-node machine: the ends of
    the first jobs placed snap onto each other differently in different
    orders, so two paths with the same starts and the same profile length
    leave different profiles, and one's chain is not the other's.  Found
    by a random search; a memo without the inexact guard gets it wrong
    under DDS and LDS, with and without ``prune``."""
    h = TIME_EPS / 2
    jobs = (
        (4658.0, 2, 1200.0),
        (14083.0, 1, 1200.0 + h),
        (6348.0, 4, 1200.0 + h),
        (7070.0, 1, 1200.0 - h),
        (4562.0, 1, 1200.0 + h),
        (13357.0, 3, 1200.0 + h),
    )
    return _spec(jobs, capacity=4, heuristic="fcfs")


def _deep_queue(n: int = 40) -> InstanceSpec:
    """n jobs of mixed shapes behind a part-busy 32-node machine."""
    rng = RngStream(31, "chain-memo-deep")
    jobs = [
        (
            NOW - float(rng.uniform(0, 3 * HOUR)),
            int(rng.integers(1, 17)),
            float(rng.uniform(300, 4 * HOUR)),
        )
        for _ in range(n)
    ]
    return _spec(jobs, capacity=32, busy=12, omega=1800.0)


def _cases(family, sizes_and_seeds):
    return [
        pytest.param(family(n, seed), id=f"{family.__name__[1:]}-{n}-{seed}")
        for n, seed in sizes_and_seeds
    ]


SMALL = [
    *_cases(_fits_now, ((4, 1), (6, 2))),
    *_cases(_same_shape, ((5, 3), (6, 4))),
    *_cases(_near_eps, ((5, 102), (6, 100), (6, 103))),
    *_cases(_submitted_now, ((6, 102), (6, 125), (7, 102), (7, 107))),
    *_cases(_submitted_later, ((5, 8), (6, 9))),
    pytest.param(_snapping_orders(), id="snapping_orders"),
]
MEDIUM = [
    *_cases(_fits_now, ((9, 10),)),
    *_cases(_same_shape, ((10, 11),)),
    *_cases(_near_eps, ((10, 12),)),
    *_cases(_submitted_now, ((9, 17),)),
    *_cases(_submitted_later, ((9, 13),)),
]


def _run(problem, algorithm, node_limit, prune, engine):
    return fingerprint(
        DiscrepancySearch(
            algorithm,
            node_limit=node_limit,
            prune=prune,
            engine=engine,
            record_anytime=True,
        ).search(problem)
    )


def _iteration_budgets(problem, algorithm, prune) -> list[int]:
    """Budgets that stop inside iterations 2 and 3.  The first budget at
    which each of iterations 2, 3 and 4 has started is found by bisection
    on the fast engine (``iterations_started`` only grows with the
    budget); between two of them, take the first two budgets, the
    midpoint and the last."""

    def started(limit):
        return DiscrepancySearch(
            algorithm, node_limit=limit, prune=prune, engine="fast"
        ).search(problem).iterations_started

    def first(k):
        lo, hi = 1, 1
        while started(hi) < k:
            lo, hi = hi, hi * 2
            if hi > 1_000_000:
                return None
        while lo < hi:
            mid = (lo + hi) // 2
            if started(mid) < k:
                lo = mid + 1
            else:
                hi = mid
        return lo

    starts = [first(k) for k in (2, 3, 4)]
    budgets = set()
    for a, b in zip(starts, starts[1:]):
        if a is None or b is None:
            continue
        budgets.update((a, a + 1, (a + b) // 2, b - 1))
    return sorted(budgets)


@pytest.mark.parametrize("spec", SMALL)
@pytest.mark.parametrize("algorithm", ["dds", "lds"])
@pytest.mark.parametrize("prune", [False, True])
def test_compiled_is_fast_and_reference_on_repeating_chains(spec, algorithm, prune):
    problem = spec.to_problem()
    budgets = _iteration_budgets(problem, algorithm, prune)
    assert budgets, "no budget stops inside iterations 2 and 3"
    for node_limit in (None, *budgets):
        want = _run(problem, algorithm, node_limit, prune, "reference")
        assert _run(problem, algorithm, node_limit, prune, "fast") == want
        got = _run(problem, algorithm, node_limit, prune, "compiled")
        assert got == want, (spec, algorithm, prune, node_limit)


@pytest.mark.parametrize("spec", MEDIUM)
@pytest.mark.parametrize("algorithm", ["dds", "lds"])
@pytest.mark.parametrize("prune", [False, True])
def test_compiled_is_fast_on_larger_repeating_chains(spec, algorithm, prune):
    problem = spec.to_problem()
    for node_limit in (3_000, 20_000, *_iteration_budgets(problem, algorithm, prune)):
        want = _run(problem, algorithm, node_limit, prune, "fast")
        got = _run(problem, algorithm, node_limit, prune, "compiled")
        assert got == want, (spec, algorithm, prune, node_limit)


@pytest.mark.parametrize("algorithm", ["dds", "lds"])
def test_compiled_is_fast_on_a_deep_queue_that_fills_the_memo(algorithm):
    """40 jobs at 200K nodes: the memo reaches its cap, stops recording
    and keeps answering."""
    problem = _deep_queue().to_problem()
    want = _run(problem, algorithm, 200_000, False, "fast")
    assert _run(problem, algorithm, 200_000, False, "compiled") == want
