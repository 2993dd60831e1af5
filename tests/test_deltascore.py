"""Bit-exactness properties of the delta scoring kernel.

The fast engine's delta accumulators and the reference engine's tuple
accumulation must agree **bit-for-bit** — not within a tolerance — or
the engines' fingerprint-identity contract silently becomes "identical
until the floats drift".  Floating-point addition is not associative,
so these properties pin the exact association order
(``((0.0 + t1) + t2) + ...``, see ``ScheduleScore``'s docstring) for
every producer:

- ``SearchProfile.place_run_fold``'s fused placement+fold loop — the one
  batched chain path, which skips the add when the excess term is not
  positive — against the reference left-to-right tuple fold, over
  fractional times of any magnitude, non-zero incoming accumulators and
  chains from one job to well past a hundred,
- whole searches on the bench decision point, engine against engine,

compared through ``struct.pack`` so ``-0.0 != +0.0`` and NaN payloads
would be caught.  ``place_run_fold`` is additionally pinned to sequential
``place()`` calls: same starts, same breakpoints, same free counts.

One more property is about the fold alone: it is monotone per component
in its starting accumulator, the fact the compiled kernel's subtree
entries rest on (``docs/performance.md``, "Subtrees that repeat"), and a
lexicographic compare of two accumulators does not carry through it.
"""

from __future__ import annotations

import math
import struct
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.profile import AvailabilityProfile
from repro.core.search import _index_strategy
from repro.util.timeunits import MINUTE


def bits(x: float) -> bytes:
    """The exact IEEE-754 representation (ulp-exact comparison key)."""
    return struct.pack("<d", x)


def reference_fold(
    exc: float,
    slow: float,
    waits: list[float],
    denoms: list[float],
    omega: float,
) -> tuple[float, float]:
    """The reference engine's accumulation: unconditional left-to-right
    adds of ``max(0.0, wait - omega)`` and ``(wait + den) / den`` (what
    ``build_strategy``'s tuple extend does, term by term)."""
    for wait, den in zip(waits, denoms):
        exc = exc + max(0.0, wait - omega)
        slow = slow + (wait + den) / den
    return exc, slow


# Term magnitudes span seconds to months; exponents beyond that only
# test float edge cases the scheduler can't produce (inf/overflow).
seconds = st.floats(
    min_value=0.0, max_value=3.0e7, allow_nan=False, allow_infinity=False
)
runtimes = st.floats(
    min_value=1.0, max_value=3.0e7, allow_nan=False, allow_infinity=False
)


@st.composite
def run_cases(draw: st.DrawFn):
    """A capacity, a busy machine, a run of jobs to chain-place and a
    non-trivial incoming accumulator."""
    capacity = draw(st.integers(min_value=2, max_value=16))
    now = draw(st.floats(min_value=7_200.0, max_value=3.0e7))
    # Drawn first: a bare ``max_size`` almost never yields a long list,
    # and the property has to hold at queue lengths past any real one.
    n = draw(st.integers(min_value=1, max_value=130))
    jobs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=capacity),  # nodes
                runtimes,
                st.floats(min_value=0.0, max_value=now),  # submit: wait >= 0
            ),
            min_size=n,
            max_size=n,
        )
    )
    # Pre-place a few jobs so the profile has internal structure.
    pre = draw(
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=capacity), runtimes),
            max_size=4,
        )
    )
    omega = draw(seconds)
    # The incoming accumulator is itself a reference fold over a random
    # prefix, so the property also covers mid-path handoff points.
    prefix = draw(st.lists(st.tuples(seconds, runtimes), max_size=4))
    exc0, slow0 = reference_fold(
        0.0, 0.0, [w for w, _ in prefix], [d for _, d in prefix], omega
    )
    return capacity, jobs, pre, now, omega, exc0, slow0


#: 36 whole-machine jobs of ~3e7 s end to end, then a 1.1 s one: under
#: ``REPRO_SANITIZE=1`` the last ``place`` once failed node-second
#: conservation (1.0999984741210938 against 1.0999999046325684), because
#: the check subtracted two whole-profile integrals of ~1.7e10.
ILL_CONDITIONED_RUN = (
    16, [(16, 29999999.9, 0.0)] * 36 + [(1, 1.1, 0.0)], [], 7200.0, 0.0, 0.0, 0.0
)


@given(case=run_cases())
@example(case=ILL_CONDITIONED_RUN)
@settings(max_examples=150, deadline=None)
def test_place_run_variants_bit_equal_sequential_place(case):
    """``place_run_fold`` commits the same placements — same starts, same
    breakpoints, same free counts — as job-by-job ``place()``, and its
    fused fold returns the reference totals.

    The fused loop skips the add when the excess term is not positive —
    exact only because the accumulator is never negative, which this
    property also witnesses across random magnitudes.
    """
    capacity, jobs, pre, now, omega, exc0, slow0 = case
    nodes_arr = [n for n, _, _ in jobs]
    rt_arr = [r for _, r, _ in jobs]
    submit = [s for _, _, s in jobs]
    denom = [r if r >= MINUTE else MINUTE for r in rt_arr]
    idxs = list(range(len(jobs)))

    def fresh():
        view = AvailabilityProfile(capacity, origin=now).search_view()
        for n_, r_ in pre:
            view.place(n_, r_, now)
        return view

    ref = fresh()
    ref_starts = [ref.place(nodes_arr[i], rt_arr[i], now) for i in idxs]
    want = reference_fold(
        exc0, slow0, [ref_starts[i] - submit[i] for i in idxs], denom, omega
    )

    fused = fresh()
    ck = fused.checkpoint()
    out = [0.0] * len(jobs)
    exc, slow = fused.place_run_fold(
        idxs, 0, len(jobs), nodes_arr, rt_arr, now, out, submit, denom, omega, exc0, slow0
    )
    assert [bits(s) for s in out] == [bits(s) for s in ref_starts]
    assert fused.segments() == ref.segments()
    assert bits(exc) == bits(want[0])
    assert bits(slow) == bits(want[1])
    fused.rollback(ck)
    # Rollback restored the pre-run profile exactly.
    assert fused.segments() == fresh().segments()


def engine_fold(omega: float, waits: list[float], denoms: list[float]):
    """The fast engine's two-level ``fold`` (which ``_ckernel.c``
    transcribes operation for operation) over jobs submitted at 0.0, so
    job ``i`` started at ``waits[i]`` waits exactly that long."""
    problem = SimpleNamespace(evaluator=None, omega=omega)
    arrays = SimpleNamespace(submit=[0.0] * len(waits), denom=denoms)
    _, fold, _, _ = _index_strategy(problem, arrays)  # type: ignore[arg-type]

    def run(acc: tuple[float, float]) -> tuple[float, float]:
        for i, wait in enumerate(waits):
            acc = fold(acc, i, wait)
        return acc

    return run


#: Partial sums from nothing to far past a month's backlog.
accumulators = st.floats(min_value=0.0, max_value=1.0e12)


@st.composite
def ordered(draw: st.DrawFn) -> tuple[float, float]:
    """``lo <= hi``: equal, one ulp apart, or anywhere above."""
    lo = draw(accumulators)
    hi = draw(
        st.one_of(
            st.just(lo),
            st.just(math.nextafter(lo, math.inf)),
            st.floats(min_value=lo, max_value=2.0e12),
        )
    )
    return lo, hi


@given(
    exc=ordered(),
    slow=ordered(),
    omega=seconds,
    terms=st.lists(
        st.tuples(seconds, st.floats(min_value=MINUTE, max_value=3.0e7)),
        max_size=40,
    ),
)
@settings(max_examples=300, deadline=None)
def test_the_fold_is_monotone_per_component_in_its_start(exc, slow, omega, terms):
    """Folding the same terms from ``(a, b)`` and from ``(a', b')`` with
    ``a <= a'`` and ``b <= b'`` gives ``exc <= exc'`` and ``slow <=
    slow'``, each level on its own (level-1 terms added only when
    positive).  Every step is one IEEE addition of the same term, and
    round-to-nearest is monotone, so this holds term by term; it is what
    lets the kernel count a DFS node whose partial sums are componentwise
    no smaller than those of a finished walk of the same subtree."""
    run = engine_fold(omega, [w for w, _ in terms], [d for _, d in terms])
    lo = run((exc[0], slow[0]))
    hi = run((exc[1], slow[1]))
    assert lo[0] <= hi[0]
    assert lo[1] <= hi[1]


def test_a_lexicographic_compare_is_not_enough():
    """Why the kernel compares partial sums componentwise: two paths to one
    state can round level 1 an ulp apart.  ``(100 + 1 ulp, 5)`` is
    lexicographically above ``(100, 10)``, yet after one job waiting 1e6 s
    the ulp is absorbed and the first is below: a subtree walked from
    ``(100, 10)`` says nothing about its leaves from ``(100 + 1 ulp, 5)``."""
    run = engine_fold(0.0, [1.0e6], [MINUTE])
    walked = (100.0, 10.0)
    later = (math.nextafter(100.0, math.inf), 5.0)
    assert later > walked
    assert run(later)[0] == run(walked)[0]
    assert run(later) < run(walked)


def test_engine_totals_bit_equal_on_bench_decision():
    """End to end: the fast engine's delta-accumulated best score equals
    the reference engine's tuple-accumulated one (and the compiled
    engine's, when built), bit for bit, on the fixed 30-job bench
    decision point and on a 128-job queue of the same recipe."""
    from repro.core.ckernel import have_compiled
    from repro.core.search import DiscrepancySearch
    from repro.experiments.bench import build_problem

    engines = ["fast", "reference"] + (["compiled"] if have_compiled() else [])
    for heuristic in ("lxf", "fcfs"):
        for n_jobs in (30, 128):
            problem = build_problem(heuristic, n_jobs=n_jobs)
            scores = {
                engine: DiscrepancySearch(
                    "dds", node_limit=2_000, engine=engine
                ).search(problem).best_score
                for engine in engines
            }
            ref = scores.pop("reference")
            for got in scores.values():
                assert bits(got.total_excessive_wait) == bits(ref.total_excessive_wait)
                assert bits(got.total_slowdown) == bits(ref.total_slowdown)
                assert bits(got.avg_slowdown) == bits(ref.avg_slowdown)
