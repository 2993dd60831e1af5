"""Property-based tests for the availability profile (hypothesis).

The profile is the substrate of every planner in the library; these
properties pin down exactly the guarantees the search and backfill engines
rely on: feasibility and minimality of earliest-fit starts, and exact
LIFO reserve/release reversibility.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profile import AvailabilityProfile
from repro.simulator.policy import RunningJob
from repro.util.sanitize import sanitized
from repro.util.timeunits import TIME_EPS, time_eq

from tests.conftest import make_job

CAPACITY = 16

# A reservation request: (start offset, duration, nodes).
reservation = st.tuples(
    st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
    st.floats(min_value=0.1, max_value=200.0, allow_nan=False),
    st.integers(min_value=1, max_value=CAPACITY),
)

# A job request used for earliest-fit queries: (nodes, duration, earliest).
query = st.tuples(
    st.integers(min_value=1, max_value=CAPACITY),
    st.floats(min_value=0.1, max_value=300.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=400.0, allow_nan=False),
)


def _build(reservations: list[tuple[float, float, int]]) -> AvailabilityProfile:
    """Apply a sequence of feasible placements via earliest-fit."""
    p = AvailabilityProfile(CAPACITY, origin=0.0)
    for earliest, duration, nodes in reservations:
        start = p.earliest_start(nodes, duration, earliest)
        p.reserve(start, duration, nodes)
    return p


@given(st.lists(reservation, max_size=12))
@settings(max_examples=150, deadline=None)
def test_invariants_hold_after_any_placement_sequence(reservations):
    p = _build(reservations)
    p.check_invariants()


@given(st.lists(reservation, max_size=10), query)
@settings(max_examples=150, deadline=None)
def test_earliest_start_is_feasible(reservations, q):
    nodes, duration, earliest = q
    p = _build(reservations)
    start = p.earliest_start(nodes, duration, earliest)
    assert start >= earliest
    assert p.min_free(start, start + duration) >= nodes
    # Committing at the returned start must always succeed.
    p.reserve(start, duration, nodes)
    p.check_invariants()


@given(st.lists(reservation, max_size=8), query)
@settings(max_examples=100, deadline=None)
def test_earliest_start_is_minimal(reservations, q):
    """No feasible start exists strictly before the returned one.

    Candidate starts are ``earliest`` and every breakpoint after it — a
    step function cannot become feasible anywhere else.
    """
    nodes, duration, earliest = q
    p = _build(reservations)
    start = p.earliest_start(nodes, duration, earliest)
    candidates = [earliest] + [t for t in p.times if earliest < t < start]
    for c in candidates:
        if c >= start:
            continue
        assert p.min_free(c, c + duration) < nodes, (
            f"feasible start {c} found before reported {start}"
        )


#: Offsets from the origin, for breakpoints and durations alike, that
#: cluster within TIME_EPS of each other: 10.0 and 10.000000000000002 are
#: two floats 2e-15 apart that runtimes really produce.
_TIGHT_OFFSETS = [
    10.0,
    10.000000000000002,
    10.0 + TIME_EPS,
    10.0 - TIME_EPS,
    10.0 + TIME_EPS / 2,
    10.0 + 2 * TIME_EPS,
    20.0,
    20.000000000000004,
    20.0 - TIME_EPS,
]
tight_offset = st.one_of(
    st.sampled_from(_TIGHT_OFFSETS),
    st.floats(min_value=0.5, max_value=40.0, allow_nan=False),
)


@st.composite
def tight_profiles(draw):
    """Profiles whose breakpoints sit within TIME_EPS of each other, at
    origin 0 and at origins where the offsets round differently."""
    origin = draw(st.sampled_from([0.0, 3600.0, 1234.5678]))
    offsets = draw(st.lists(tight_offset, max_size=8))
    times = sorted({origin + off for off in offsets} - {origin})
    frees = [draw(st.integers(min_value=0, max_value=CAPACITY)) for _ in times]
    segments = [(origin, draw(st.integers(min_value=0, max_value=CAPACITY)))]
    segments += zip(times, frees[:-1] + [CAPACITY])
    if len(segments) == 1:
        segments = [(origin, CAPACITY)]
    return AvailabilityProfile.from_segments(CAPACITY, segments)


@given(
    tight_profiles(),
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=CAPACITY), tight_offset),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=300, deadline=None)
def test_fits_now_is_earliest_start_at_the_origin(p, queries):
    """``fits_now`` answers exactly ``earliest_start(…, origin) <= origin``,
    window ends within TIME_EPS of a breakpoint included."""
    for nodes, duration in queries:
        expected = p.earliest_start(nodes, duration, p.origin) <= p.origin
        assert p.fits_now(nodes, duration) is expected, (nodes, duration, p.segments())


@pytest.mark.parametrize("nodes,duration", [(CAPACITY + 1, 10.0), (1, 0.0), (1, -1.0)])
def test_fits_now_raises_what_earliest_start_raises(nodes, duration):
    p = AvailabilityProfile(CAPACITY, origin=5.0)
    with pytest.raises(ValueError) as expected:
        p.earliest_start(nodes, duration, p.origin)
    with pytest.raises(ValueError) as got:
        p.fits_now(nodes, duration)
    assert str(got.value) == str(expected.value)


@given(st.lists(reservation, min_size=1, max_size=10))
@settings(max_examples=150, deadline=None)
def test_lifo_release_restores_profile_exactly(reservations):
    p = AvailabilityProfile(CAPACITY, origin=0.0)
    snapshots = [p.segments()]
    tokens = []
    for earliest, duration, nodes in reservations:
        start = p.earliest_start(nodes, duration, earliest)
        tokens.append(p.reserve(start, duration, nodes))
        snapshots.append(p.segments())
    for token in reversed(tokens):
        snapshots.pop()
        p.release(token)
        assert p.segments() == snapshots[-1]
    assert p.segments() == [(0.0, CAPACITY)]


@given(st.lists(reservation, max_size=10))
@settings(max_examples=100, deadline=None)
def test_free_never_exceeds_capacity_nor_goes_negative(reservations):
    p = _build(reservations)
    assert all(0 <= f <= CAPACITY for f in p.free)


@given(st.lists(reservation, max_size=10), st.floats(min_value=0, max_value=1000))
@settings(max_examples=100, deadline=None)
def test_free_at_matches_segments(reservations, t):
    p = _build(reservations)
    expected = CAPACITY
    for time, free in p.segments():
        if time <= t:
            expected = free
    assert p.free_at(t) == expected


@given(st.lists(reservation, max_size=10), reservation)
@settings(max_examples=150, deadline=None)
def test_failed_reserve_leaves_profile_unchanged(reservations, attempt):
    """A checked reserve either succeeds or is a perfect no-op."""
    start, duration, nodes = attempt
    p = _build(reservations)
    before = p.segments()
    if p.min_free(start, start + duration) >= nodes:
        p.reserve(start, duration, nodes)
        p.check_invariants()
    else:
        with pytest.raises(ValueError):
            p.reserve(start, duration, nodes)
        assert p.segments() == before
        p.check_invariants()


@given(st.lists(reservation, min_size=1, max_size=10))
@settings(max_examples=150, deadline=None)
def test_arbitrary_feasible_reserves_round_trip(reservations):
    """LIFO reversibility holds for *any* feasible start, not just
    earliest-fit ones, with free counts in bounds at every step."""
    p = AvailabilityProfile(CAPACITY, origin=0.0)
    snapshots = [p.segments()]
    tokens = []
    for start, duration, nodes in reservations:
        if p.min_free(start, start + duration) < nodes:
            continue  # infeasible at this raw start: skip, don't relocate
        tokens.append(p.reserve(start, duration, nodes))
        p.check_invariants()
        snapshots.append(p.segments())
    for token in reversed(tokens):
        snapshots.pop()
        p.release(token)
        p.check_invariants()
        assert p.segments() == snapshots[-1]
    assert p.segments() == [(0.0, CAPACITY)]


# ----------------------------------------------------------------------
# Differential properties: SearchProfile (the flat-array undo-stack fast
# path) against AvailabilityProfile (the reference), which the search
# engines' bit-identity contract rests on.
# ----------------------------------------------------------------------


@given(st.lists(reservation, max_size=10), st.lists(query, min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_search_view_earliest_start_matches_reference(reservations, queries):
    """``SearchProfile.earliest_fit`` returns the exact float the
    reference's ``earliest_start`` returns, on any reachable profile
    shape."""
    p = _build(reservations)
    view = p.search_view()
    for nodes, duration, earliest in queries:
        assert view.earliest_fit(nodes, duration, earliest) == p.earliest_start(
            nodes, duration, earliest
        )
    assert view.segments() == p.segments()


@given(st.lists(reservation, max_size=10), st.lists(query, min_size=1, max_size=10))
@settings(max_examples=150, deadline=None)
def test_search_view_place_matches_reserve(reservations, placements):
    """A ``place`` sequence produces bit-identical starts and segments to
    the reference's earliest_start + reserve sequence."""
    p = _build(reservations)
    view = p.search_view()
    for nodes, duration, earliest in placements:
        expected = p.earliest_start(nodes, duration, earliest)
        p.reserve(expected, duration, nodes, check=False)
        assert view.place(nodes, duration, earliest) == expected
        assert view.segments() == p.segments()
        view.check_invariants()


@given(st.lists(reservation, max_size=8), st.lists(query, min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_search_view_deep_lifo_restores_exactly(reservations, placements):
    """Unwinding a deep undo stack restores the profile exactly — every
    intermediate depth matches the snapshot taken on the way down."""
    p = _build(reservations)
    view = p.search_view()
    base = p.segments()
    snapshots = [base]
    for nodes, duration, earliest in placements:
        view.place(nodes, duration, earliest)
        snapshots.append(view.segments())
    assert view.depth == len(placements)
    while view.depth:
        snapshots.pop()
        view.unplace()
        assert view.segments() == snapshots[-1]
        view.check_invariants()
    assert view.segments() == base


@given(st.lists(reservation, max_size=8), st.lists(query, min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_search_view_does_not_touch_source_profile(reservations, placements):
    p = _build(reservations)
    before = p.segments()
    view = p.search_view()
    for nodes, duration, earliest in placements:
        view.place(nodes, duration, earliest)
    while view.depth:
        view.unplace()
    assert p.segments() == before


# ----------------------------------------------------------------------
# Order independence: the premise of the compiled kernel's chain memo
# (src/repro/core/_ckernel.c, ck_memo_find).
# ----------------------------------------------------------------------
def _place_in_order(p: AvailabilityProfile, jobs, order):
    """Place ``jobs[k]`` for k in ``order`` at the origin on a fresh view:
    (sorted (job, start) pairs, whether every start and end landed on a
    breakpoint of its own value, the segments left)."""
    with sanitized(False):  # ROADMAP item 6's snapping can over-claim
        view = p.search_view()
    pairs, exact = [], True
    for k in order:
        nodes, duration = jobs[k]
        start = view.place(nodes, duration, p.origin)
        times = {t for t, _ in view.segments()}
        exact = exact and start in times and start + duration in times
        pairs.append((k, start))
    return tuple(sorted(pairs)), exact, view.segments()


@given(
    tight_profiles(),
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=CAPACITY), tight_offset),
        min_size=2,
        max_size=4,
    ),
)
@settings(max_examples=200, deadline=None)
def test_exact_placements_leave_one_profile_in_any_order(p, jobs):
    """Placed in every order, jobs whose starts and ends all landed exactly
    leave the same (times, free) whenever they got the same starts: the
    breakpoints are the running profile's plus those starts and ends, and
    each segment's free count is a sum over the jobs covering it.
    Runtimes 10.0, 10.000000000000002 and 10.0 ± TIME_EPS are drawn often,
    so orders that snap inexactly are common too; they are left out."""
    left: dict[tuple, list] = {}
    for order in itertools.permutations(range(len(jobs))):
        pairs, exact, segments = _place_in_order(p, jobs, order)
        if exact:
            left.setdefault(pairs, []).append(segments)
    for pairs, profiles in left.items():
        assert all(seg == profiles[0] for seg in profiles), (pairs, profiles)


def test_an_inexact_snap_makes_the_order_matter():
    """Why a path with an inexact snap may not use the memo: the same
    starts in two orders leave two profiles, and the next job starts
    2e-15 apart on them.  Placed first, 10.0 leaves a breakpoint that
    10.000000000000002 snaps onto; the other way round both stay."""
    p = AvailabilityProfile(CAPACITY, origin=0.0)
    jobs = [(1, 10.0), (1, 10.000000000000002)]
    first, exact_first, seg_first = _place_in_order(p, jobs, (0, 1))
    second, exact_second, seg_second = _place_in_order(p, jobs, (1, 0))
    assert first == second == ((0, 0.0), (1, 0.0))
    assert (exact_first, exact_second) == (False, True)
    assert seg_first == [(0.0, CAPACITY - 2), (10.0, CAPACITY)]
    assert seg_second == [
        (0.0, CAPACITY - 2), (10.0, CAPACITY - 1), (10.000000000000002, CAPACITY)
    ]
    starts = set()
    for order in ((0, 1), (1, 0)):
        with sanitized(False):
            view = p.search_view()
        for k in order:
            view.place(*jobs[k], p.origin)
        starts.add(view.place(CAPACITY, 5.0, p.origin))
    assert starts == {10.0, 10.000000000000002}


running_job = st.tuples(
    st.integers(min_value=1, max_value=CAPACITY // 2),
    st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
)


@given(st.lists(running_job, max_size=8), st.floats(min_value=0.0, max_value=100.0))
@settings(max_examples=150, deadline=None)
def test_from_running_satisfies_invariants(jobs, now):
    # Trim the running set so it fits the machine, as the engine guarantees.
    selected, occupied = [], 0
    for nodes, release in jobs:
        if occupied + nodes <= CAPACITY:
            selected.append(
                RunningJob(job=make_job(nodes=nodes), release_time=release)
            )
            occupied += nodes
    p = AvailabilityProfile.from_running(CAPACITY, now, selected)
    p.check_invariants()
    assert p.origin == now
    # Jobs whose believed release is (effectively) now occupy nothing.
    still_running = sum(r.nodes for r in selected if r.release_time > now + 1e-9)
    assert p.free_at(now) == CAPACITY - still_running
    # After the last believed release everything is free again.
    horizon = max([now] + [max(r.release_time, now) for r in selected])
    assert p.free_at(horizon + 1.0) == CAPACITY


def _from_running_by_sorting(capacity, now, running):
    """``from_running`` as first written: sort the releases (stably, by
    time alone), then fold equal instants with ``time_eq``."""
    releases = sorted(
        ((max(r.release_time, now), r.nodes) for r in running), key=lambda p: p[0]
    )
    times, free = [now], [capacity - sum(n for _, n in releases)]
    for release_time, nodes in releases:
        if time_eq(release_time, times[-1]):
            free[-1] += nodes
        else:
            times.append(release_time)
            free.append(free[-1] + nodes)
    return times, free


# Offsets from ``now`` that land on, inside and just outside the
# simultaneity window, so folds (and chains of near-equal releases) occur.
release_offset = st.sampled_from(
    [-3.0, 0.0, 4e-10, 1e-9, 1.6e-9, 2.5e-9, 1.0, 1.0 + 6e-10, 1.0 + 1.2e-9, 7.5, 60.0]
)


@given(
    st.lists(st.tuples(st.integers(min_value=1, max_value=3), release_offset), max_size=8),
    st.sampled_from([0.0, 1.0, 1000.0]),
    st.randoms(use_true_random=False),
)
@settings(max_examples=300, deadline=None)
def test_from_running_one_pass_equals_sort_then_fold(jobs, now, rnd):
    running = [
        RunningJob(job=make_job(job_id=i, nodes=nodes), release_time=now + offset)
        for i, (nodes, offset) in enumerate(jobs, start=1)
    ]
    rnd.shuffle(running)
    expected = _from_running_by_sorting(32, now, running)
    in_engine_order = sorted(running, key=lambda r: (r.release_time, r.job.job_id))
    for given_order in (running, in_engine_order):
        p = AvailabilityProfile.from_running(32, now, given_order)
        assert (p.times, p.free) == expected  # exact floats, exact counts


@given(st.lists(reservation, max_size=10), reservation)
@settings(max_examples=100, deadline=None)
def test_copy_is_independent(reservations, extra):
    start, duration, nodes = extra
    p = _build(reservations)
    clone = p.copy()
    assert clone == p and clone is not p
    # Mutating the copy (at earliest fit, so it always succeeds) must not
    # touch the original, and vice versa.
    fit = clone.earliest_start(nodes, duration, start)
    clone.reserve(fit, duration, nodes)
    assert p.segments() != clone.segments() or nodes == 0
    original = p.segments()
    p.reserve(p.earliest_start(1, 1.0, 0.0), 1.0, 1)
    clone.check_invariants()
    p.check_invariants()
    assert original != p.segments()
