"""The longest-waiting job's bound: the fast and compiled engines count a
subtree whose oldest unplaced job already lifts level 1 above the
incumbent's (``docs/performance.md``, "The longest-waiting job's bound").

It rests on two facts, each held to an oracle here, and it must be
invisible:

- an earliest fit never gets earlier as a path places more jobs
  (``SearchProfile.earliest_fit``, breakpoints and runtimes within
  ``TIME_EPS`` of each other included);
- at every node of the whole search tree of instances of up to 7 jobs —
  every order of every prefix — ``_wait_bound`` never exceeds level 1 of
  any completion below the node;
- the engines that use it give the reference's answers, exhaustive and
  at budgets, on instances where it fires and where level 1 ties with
  the incumbent's (``B == cut``), which a ``>=`` would count wrongly.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.search import DiscrepancySearch, _FastSearchRun
from repro.util.rng import RngStream
from repro.util.sanitize import sanitize_enabled, sanitized
from repro.util.timeunits import HOUR
from tests.oracles import (
    CONFORMANCE_ENGINES,
    NOW,
    InstanceSpec,
    fingerprint,
    instance_specs,
)
from tests.test_profile_properties import (
    CAPACITY,
    tight_offset,
    tight_profiles,
)

#: The engines that use the bound; each is held to the reference.
COUNTING = tuple(e for e in CONFORMANCE_ENGINES if e != "reference")


# ----------------------------------------------------------------------
# Premise: placing more jobs never makes an earliest fit earlier
# ----------------------------------------------------------------------
job_request = st.tuples(st.integers(min_value=1, max_value=CAPACITY), tight_offset)


@given(
    tight_profiles(),
    job_request,
    st.lists(
        st.tuples(job_request, st.sampled_from([0.0, 5.0, 10.0, 10.000000000000002])),
        max_size=8,
    ),
)
@settings(max_examples=300, deadline=None)
def test_earliest_fit_never_gets_earlier_after_further_placements(p, query, placements):
    """``earliest_fit`` answers ``earliest_start`` without touching the
    profile, and its answer for a fixed job only moves later while jobs
    are placed — near-equal runtimes and breakpoints within ``TIME_EPS``
    included, where a start or end snaps to a neighbouring breakpoint.

    Sanitizing off: ROADMAP item 6's one-sided snapping can over-claim a
    segment shorter than ``TIME_EPS`` (a free count of -1, which the
    sanitizer rejects), and the bound runs on exactly such profiles,
    since no engine asks it under the sanitizer."""
    nodes, duration = query
    with sanitized(False):
        view = p.search_view()
    origin = p.origin
    fit = view.earliest_fit(nodes, duration, origin)
    assert fit == p.earliest_start(nodes, duration, origin)
    for (n, d), offset in placements:
        view.place(n, d, origin + offset)
        segments = view.segments()
        later = view.earliest_fit(nodes, duration, origin)
        assert view.segments() == segments
        assert later >= fit, (query, later, fit, segments)
        fit = later


# ----------------------------------------------------------------------
# Soundness: the bound is below every completion, at every node
# ----------------------------------------------------------------------
def _check_every_node(problem) -> tuple[int, int]:
    """Walk the whole tree of ``problem`` — every order of every prefix —
    with the fast engine's own profile, fold and placed flags, and assert
    at each node with an unplaced job that ``_wait_bound`` is at most
    level 1 of every leaf below it.  Returns (nodes checked, nodes where
    the bound is above the node's own level 1)."""
    run = _FastSearchRun(problem, "dds", None, False)
    n = len(problem.jobs)
    profile, placed, fold = run.profile, run._placed, run._fold
    checked = lifted = 0

    def lowest_leaf(acc) -> float:
        nonlocal checked, lifted
        free = [i for i in range(n) if not placed[i]]
        if not free:
            return acc[0]
        bound = run._wait_bound(acc[0])
        low = min(child(i, acc) for i in free)
        assert bound <= low, (problem.jobs, acc, bound, low)
        checked += 1
        lifted += bound > acc[0]
        return low

    def child(i, acc) -> float:
        start = profile.place(run._nodes[i], run._runtime[i], problem.now)
        placed[i] = True
        try:
            return lowest_leaf(fold(acc, i, start))
        finally:
            placed[i] = False
            profile.unplace()

    lowest_leaf(run._acc0)
    return checked, lifted


@given(instance_specs(max_jobs=7))
@settings(max_examples=40, deadline=None)
def test_bound_never_exceeds_a_completion_below(spec):
    _check_every_node(spec.to_problem())


def _specs(count: int = 24, seed: int = 29) -> list[InstanceSpec]:
    """5-7 jobs on an 8-node machine submitted up to 3 h before ``NOW``,
    behind a machine that frees up over 2 h, with ω at 15 min (the bound
    fires) or 10 h (level 1 is 0 everywhere, so it ties the incumbent's)."""
    rng = RngStream(seed, "wait-bound")
    specs = []
    for k in range(count):
        jobs = tuple(
            (
                NOW - float(rng.uniform(0, 3 * HOUR)),
                int(rng.integers(1, 9)),
                float(rng.uniform(60, 2 * HOUR)),
            )
            for _ in range(int(rng.integers(5, 8)))
        )
        busy = int(rng.integers(0, 8))
        specs.append(InstanceSpec(
            capacity=8,
            jobs=jobs,
            segments=((NOW, 8 - busy), (NOW + float(rng.uniform(600, 2 * HOUR)), 8)),
            omega=900.0 if k % 2 == 0 else 36000.0,
            heuristic=str(rng.choice(["fcfs", "lxf", "sjf"])),
        ))
    return specs


SPECS = _specs()


def test_bound_is_sound_and_not_vacuous_on_seeded_instances():
    """The exhaustive check on fixed instances, and proof that the bound
    is above the node's own level 1 somewhere (else it could not fire)."""
    lifted = 0
    for spec in SPECS:
        lifted += _check_every_node(spec.to_problem())[1]
    assert lifted


# ----------------------------------------------------------------------
# Invisible: the engines that count agree with the one that places all
# ----------------------------------------------------------------------
def test_engines_agree_with_the_reference_where_the_bound_fires_and_ties(monkeypatch):
    """Every counting engine's fingerprint, anytime trace included, is the
    reference's, exhaustive and at three budgets, under DDS and LDS — and
    on the fast engine the bound fired, and met a tie it must not count
    (sanitized, the fast engine places every node and never asks it)."""
    fired = ties = 0
    wait_bound = _FastSearchRun._wait_bound

    def noted(run, exc):
        nonlocal fired, ties
        bound = wait_bound(run, exc)
        fired += bound > run._cut[0]
        ties += bound == run._cut[0]
        return bound

    monkeypatch.setattr(_FastSearchRun, "_wait_bound", noted)
    for spec in SPECS:
        problem = spec.to_problem()
        for algorithm in ("dds", "lds"):
            for node_limit in (40, 300, 2000, None):
                want = fingerprint(DiscrepancySearch(
                    algorithm, node_limit=node_limit, engine="reference",
                    record_anytime=True,
                ).search(problem))
                for engine in COUNTING:
                    got = DiscrepancySearch(
                        algorithm, node_limit=node_limit, engine=engine,
                        record_anytime=True,
                    ).search(problem)
                    assert fingerprint(got) == want, (spec, algorithm, node_limit, engine)
    assert bool(fired and ties) is not sanitize_enabled()
