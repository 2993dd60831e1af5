"""Node-availability profile: free nodes as a step function of time.

This single data structure underlies everything that plans into the future:

- the search-based scheduler places each job of a candidate order at its
  earliest feasible start ("list scheduling" along a path, paper §2.2);
- priority backfill gives its reservation the earliest time enough nodes
  are free, and a backfill candidate is started iff it fits *now* on the
  profile with the reservation committed (so it can never delay it).

The profile is a piecewise-constant function stored as two parallel lists:
``times`` (strictly increasing breakpoints, ``times[0]`` is the origin) and
``free`` (free nodes on ``[times[i], times[i+1])``; the last value extends to
infinity).  Because every reservation has finite duration, the final segment
always has all ``capacity`` nodes free, which guarantees every earliest-fit
query terminates.

Reservations return an undo token; :meth:`release` with that token restores
the profile exactly, **provided releases happen in LIFO order** — which is
precisely the depth-first discipline of the search.  This avoids copying the
profile at every one of the (up to 100K) nodes the search visits.

Two implementations share these semantics:

- :class:`AvailabilityProfile` — the reference: two plain lists with
  ``bisect`` queries and ``insert``/``del`` mutation.  Every non-search
  consumer (backfill, schedule builder, tests) uses it.
- :class:`SearchProfile` — the search engine's fast path: the same two
  sorted lists, but query and commit are one call (``place``) that finds
  the start and both breakpoints in a single forward walk — no ``bisect``,
  no token object, no second scan — with ``list.insert``/``del`` for the
  breakpoints and the undo state on an explicit LIFO stack; a whole
  heuristic chain can be committed in one loop (``place_run_fold``) and
  thrown away by restoring a copy of the lists.  Built from a reference
  profile via :meth:`AvailabilityProfile.search_view`, its
  ``earliest_fit`` must answer what the reference's ``earliest_start``
  does, bit for bit — a property pinned by the differential hypothesis
  tests in ``tests/test_profile_properties.py``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import inf
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.util.sanitize import require, sanitize_enabled
from repro.util.timeunits import TIME_EPS, time_eq, time_lt
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.simulator.policy import RunningJob

_EPS = TIME_EPS

#: Opaque state snapshot returned by :meth:`SearchProfile.checkpoint`:
#: copies of the breakpoint/free arrays plus the undo-stack depth.
ProfileCheckpoint = tuple[list[float], list[int], int]


@dataclass(frozen=True)
class ReservationToken:
    """Opaque undo token returned by :meth:`AvailabilityProfile.reserve`."""

    start: float
    end: float
    nodes: int
    created_start: bool
    created_end: bool


def _fold_releases(
    now: float, running: Iterable["RunningJob"]
) -> tuple[list[float], list[int], int] | None:
    """Breakpoints of ``running``'s releases, or ``None`` if out of order.

    Returns ``(times, released, occupied)``: ``released[i]`` nodes have
    come back by ``times[i]`` (``times[0]`` is ``now``) out of ``occupied``
    in all.  A release at or before ``now``, or within ``TIME_EPS`` of
    the current breakpoint, folds into that breakpoint — ``time_eq``,
    written out because the input is checked to be non-decreasing.
    """
    times = [now]
    released = [0]
    occupied = 0
    at = previous = now
    for r in running:
        t = r.release_time
        if t < now:
            t = now
        if t < previous:
            return None
        previous = t
        occupied += r.job.nodes
        if t - at <= _EPS:
            released[-1] = occupied
        else:
            at = t
            times.append(t)
            released.append(occupied)
    return times, released, occupied


def _blocked_in(
    times: list[float], free: list[int], i: int, end: float, nodes: int
) -> int:
    """The window test of an earliest-fit candidate in segment ``i``.

    Returns the first segment after ``i`` that starts before ``end`` (by
    more than ``TIME_EPS``) with fewer than ``nodes`` free, or ``-1`` if
    ``nodes`` stay free all the way to ``end``.  Both
    :meth:`AvailabilityProfile.earliest_start` and
    :meth:`AvailabilityProfile.fits_now` ask it, so the rule for a
    breakpoint within ``TIME_EPS`` of ``end`` is written once.
    """
    n = len(times)
    j = i
    while j + 1 < n and time_lt(times[j + 1], end):
        j += 1
        if free[j] < nodes:
            return j
    return -1


# ----------------------------------------------------------------------
# Debug-mode invariant checks (see repro.util.sanitize), written once over
# the ``(times, free, capacity)`` both profile classes store
# ----------------------------------------------------------------------
def _check_invariants(times: list[float], free: list[int], capacity: int) -> None:
    """Assert the structural invariants of a step function's two lists."""
    if len(times) != len(free):
        raise AssertionError("times/free length mismatch")
    if not times:
        raise AssertionError("profile has no segments")
    for a, b in zip(times, times[1:]):
        if not a < b:
            raise AssertionError("breakpoints not strictly increasing")
    for f in free:
        if not (0 <= f <= capacity):
            raise AssertionError(f"free count {f} outside [0, {capacity}]")
    if free[-1] != capacity:
        raise AssertionError("final segment must have all nodes free")


def _occupied_node_seconds(
    times: list[float], free: list[int], capacity: int, start: float, end: float
) -> float:
    """Integral of occupied nodes over a reservation's window: ``[start,
    end]`` widened by twice ``TIME_EPS``, the most a breakpoint of it
    moves when it snaps to a neighbour.

    A reservation or its undo changes the step function only inside that
    window, so its integral before and after differ by exactly the
    reservation's area, and the two are of the area's size, not of the
    whole profile's: two whole-profile integrals reach 1e7–1e10
    node-seconds, and their difference loses more than the tolerance to
    rounding.  The
    implicit tail beyond the last breakpoint has all nodes free, so it
    contributes nothing.
    """
    lo, hi = start - 2 * _EPS, end + 2 * _EPS
    total = 0.0
    for i in range(len(times) - 1):
        a, b = times[i], times[i + 1]
        if b > lo and a < hi:
            total += (capacity - free[i]) * ((b if b < hi else hi) - (a if a > lo else lo))
    return total


def _sanitize_delta(
    times: list[float],
    free: list[int],
    capacity: int,
    before: float,
    start: float,
    end: float,
    expected: float,
    op: str,
) -> None:
    """A reservation over ``[start, end)`` or its undo (``op``) must change
    the occupancy of its window measured ``before`` it by exactly its
    area, ``expected``."""
    _check_invariants(times, free, capacity)
    delta = _occupied_node_seconds(times, free, capacity, start, end) - before
    require(
        abs(delta - expected) <= 1e-6 * max(1.0, abs(expected)),
        f"profile {op} does not conserve node-seconds: occupancy "
        f"changed by {delta!r}, expected {expected!r}",
    )


class AvailabilityProfile:
    """Free-node step function with earliest-fit queries.

    Parameters
    ----------
    capacity:
        Total nodes in the machine.
    origin:
        Earliest representable time (usually the current simulation time).
    """

    __slots__ = ("capacity", "times", "free")

    def __init__(self, capacity: int, origin: float = 0.0) -> None:
        check_positive("capacity", capacity)
        self.capacity = int(capacity)
        self.times: list[float] = [float(origin)]
        self.free: list[int] = [self.capacity]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_running(
        cls,
        capacity: int,
        now: float,
        running: Sequence["RunningJob"],
    ) -> "AvailabilityProfile":
        """Profile as seen by a scheduler at time ``now``.

        ``running`` supplies each running job's node count and believed
        release time (see :class:`repro.simulator.policy.RunningJob`).
        The simulator hands the running set over in release order, which
        is folded in one pass; any other order is sorted first (stably,
        so equal releases keep their input order).
        """
        folded = _fold_releases(now, running)
        if folded is None:
            folded = _fold_releases(
                now, sorted(running, key=lambda r: max(r.release_time, now))
            )
            assert folded is not None
        times, released, occupied = folded
        if occupied > capacity:
            raise ValueError(
                f"running jobs occupy {occupied} nodes > capacity {capacity}"
            )
        profile = cls(capacity, origin=now)
        idle = capacity - occupied
        profile.times = times
        profile.free = [idle + n for n in released]
        return profile

    @classmethod
    def from_segments(
        cls, capacity: int, segments: Iterable[tuple[float, int]]
    ) -> "AvailabilityProfile":
        """Build directly from ``(time, free)`` pairs (mostly for tests)."""
        segs = list(segments)
        if not segs:
            raise ValueError("need at least one segment")
        profile = cls(capacity, origin=segs[0][0])
        times, free = [], []
        for t, f in segs:
            if times and t <= times[-1]:
                raise ValueError("segment times must be strictly increasing")
            if not (0 <= f <= capacity):
                raise ValueError(f"free count {f} outside [0, {capacity}]")
            times.append(float(t))
            free.append(int(f))
        if free[-1] != capacity:
            raise ValueError(
                "final segment must have all nodes free (finite reservations)"
            )
        profile.times = times
        profile.free = free
        return profile

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def origin(self) -> float:
        return self.times[0]

    def free_at(self, t: float) -> int:
        """Free nodes at time ``t`` (clamped to the origin)."""
        i = bisect_right(self.times, t) - 1
        return self.free[max(i, 0)]

    def min_free(self, start: float, end: float) -> int:
        """Minimum free nodes over ``[start, end)``."""
        if end <= start:
            raise ValueError("empty interval")
        i = max(bisect_right(self.times, start) - 1, 0)
        lowest = self.free[i]
        n = len(self.times)
        while i + 1 < n and time_lt(self.times[i + 1], end):
            i += 1
            lowest = min(lowest, self.free[i])
        return lowest

    def earliest_start(self, nodes: int, duration: float, earliest: float) -> float:
        """Earliest ``t >= earliest`` with ``nodes`` free all over
        ``[t, t + duration)``.

        Raises ``ValueError`` if ``nodes`` exceeds capacity (it can never
        fit) — callers should have validated admission already.
        """
        if nodes > self.capacity:
            raise ValueError(f"{nodes} nodes exceeds capacity {self.capacity}")
        check_positive("duration", duration)
        times, free = self.times, self.free
        n = len(times)
        candidate = max(earliest, times[0])
        i = max(bisect_right(times, candidate) - 1, 0)
        while True:
            if free[i] < nodes:
                # Skip ahead to the next segment with enough free nodes.
                i += 1
                while i < n and free[i] < nodes:
                    i += 1
                # The last segment always has capacity free, so i < n here.
                candidate = times[i]
            blocked = _blocked_in(times, free, i, candidate + duration, nodes)
            if blocked < 0:
                return candidate
            i = blocked
            candidate = times[blocked]

    def fits_now(self, nodes: int, duration: float) -> bool:
        """Whether ``nodes`` are free all over ``[origin, origin + duration)``.

        Exactly ``earliest_start(nodes, duration, origin) <= origin``, and
        it raises the same ``ValueError``\\ s, but it stops at the first
        candidate: the yes/no a backfill decision asks of a job that can
        only start now or wait.
        """
        if nodes > self.capacity:
            raise ValueError(f"{nodes} nodes exceeds capacity {self.capacity}")
        check_positive("duration", duration)
        times, free = self.times, self.free
        return free[0] >= nodes and _blocked_in(
            times, free, 0, times[0] + duration, nodes
        ) < 0

    def segments(self) -> list[tuple[float, int]]:
        """The ``(time, free)`` breakpoint list (a copy)."""
        return list(zip(self.times, self.free))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _ensure_breakpoint(self, t: float, hint: int = -1) -> tuple[int, bool]:
        """Index of the segment starting at ``t``, inserting it if needed.

        A non-negative ``hint`` proposes the index of the segment containing
        ``t``; after a cheap validity check it replaces the ``bisect``.  An
        invalid hint falls back silently.
        """
        times = self.times
        if (
            0 <= hint < len(times)
            and times[hint] <= t
            and (hint + 1 == len(times) or t < times[hint + 1])
        ):
            i = hint
        else:
            i = bisect_right(times, t) - 1
        if i < 0:
            raise ValueError(f"time {t} precedes profile origin {self.times[0]}")
        if time_eq(self.times[i], t):
            return i, False
        self.times.insert(i + 1, t)
        self.free.insert(i + 1, self.free[i])
        return i + 1, True

    def reserve(
        self,
        start: float,
        duration: float,
        nodes: int,
        check: bool = True,
    ) -> ReservationToken:
        """Claim ``nodes`` nodes over ``[start, start + duration)``.

        Returns a token for :meth:`release`.  With ``check`` (the default)
        raises if the claim would drive any segment negative.  Callers that
        just obtained ``start`` from :meth:`earliest_start` may pass
        ``check=False`` to skip the redundant feasibility scan.
        """
        if check:
            check_positive("duration", duration)
            check_positive("nodes", nodes)
        sanitize = sanitize_enabled()
        end = start + duration
        before = (
            _occupied_node_seconds(self.times, self.free, self.capacity, start, end)
            if sanitize
            else 0.0
        )
        i, created_start = self._ensure_breakpoint(start)
        # ``i`` starts at or before ``end``, so it is a valid proposal for
        # the end breakpoint too (exact for within-segment reservations).
        j, created_end = self._ensure_breakpoint(end, i)
        free = self.free
        if check and any(free[k] < nodes for k in range(i, j)):
            # Roll back the breakpoints we just created before raising.
            if created_end:
                del self.times[j], self.free[j]
            if created_start:
                del self.times[i], self.free[i]
            raise ValueError(
                f"cannot reserve {nodes} nodes over [{start}, {end}): "
                "insufficient availability"
            )
        for k in range(i, j):
            free[k] -= nodes
        token = ReservationToken(start, end, nodes, created_start, created_end)
        if sanitize:
            _sanitize_delta(
                self.times, self.free, self.capacity, before, start, end,
                nodes * (end - start), "reserve",
            )
        return token

    def release(self, token: ReservationToken) -> None:
        """Undo a :meth:`reserve`.

        Must be called in LIFO order with respect to other reserve/release
        pairs (the search's depth-first discipline guarantees this); the
        profile is then restored exactly.
        """
        sanitize = sanitize_enabled()
        before = (
            _occupied_node_seconds(
                self.times, self.free, self.capacity, token.start, token.end
            )
            if sanitize
            else 0.0
        )
        i = bisect_right(self.times, token.start) - 1
        j = bisect_right(self.times, token.end) - 1
        if i < 0 or not time_eq(self.times[i], token.start):
            raise ValueError("release token does not match profile state")
        if j < 0 or not time_eq(self.times[j], token.end):
            raise ValueError("release token does not match profile state")
        for k in range(i, j):
            self.free[k] += token.nodes
            if self.free[k] > self.capacity:
                raise AssertionError("release drove free nodes above capacity")
        if token.created_end:
            del self.times[j], self.free[j]
        if token.created_start:
            del self.times[i], self.free[i]
        if sanitize:
            area = token.nodes * (token.end - token.start)
            _sanitize_delta(
                self.times, self.free, self.capacity, before, token.start, token.end,
                -area, "release",
            )

    def copy(self) -> "AvailabilityProfile":
        """An independent deep copy."""
        clone = AvailabilityProfile(self.capacity, self.times[0])
        clone.times = self.times.copy()
        clone.free = self.free.copy()
        return clone

    def search_view(self) -> "SearchProfile":
        """An independent :class:`SearchProfile` rooted at this state.

        The search engine's substrate: place/unplace on the
        view never touches this profile.
        """
        return SearchProfile(self)

    def check_invariants(self) -> None:
        """Assert structural invariants (used heavily by property tests)."""
        _check_invariants(self.times, self.free, self.capacity)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AvailabilityProfile):
            return NotImplemented
        # Structural identity is deliberately exact (bit-for-bit): profile
        # equality backs the LIFO release round-trip tests, where any
        # tolerance would mask a restore bug.
        return (
            self.capacity == other.capacity
            and self.times == other.times  # simlint: skip=SIM003
            and self.free == other.free
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        segs = ", ".join(f"{t:.0f}:{f}" for t, f in zip(self.times, self.free))
        return f"AvailabilityProfile(cap={self.capacity}, [{segs}])"


class SearchProfile:
    """Allocation-light availability profile for the discrepancy search.

    Same step function as :class:`AvailabilityProfile`, stored the same
    way — two sorted parallel lists: ``_t[i]`` is segment ``i``'s
    breakpoint and ``_f[i]`` its free node count over
    ``[_t[i], _t[i+1])`` (the final segment extends forever and always
    has all of capacity free).  What differs is the walk: :meth:`place`
    is one forward pass in python from the first segment — position on
    ``earliest``, skip segments with too few nodes, test the candidate
    window segment by segment, then keep walking to the end breakpoint —
    where the reference pays a ``bisect`` for the query, more to find
    the same breakpoints again in ``reserve`` and in ``release``, and a
    token object per reservation.  Searches start every
    placement at ``now``, the profile's first breakpoint, so the walk a
    ``bisect`` would save is a step or two.  Breakpoints are created and
    removed with ``list.insert``/``del``: an O(segments) C memmove, cheap
    at the tens of segments a decision point has.

    Mutation is strictly stack-shaped: :meth:`place` commits an earliest-fit
    reservation and pushes one frame onto the explicit undo stack;
    :meth:`unplace` pops the top frame and restores the previous state
    exactly.  This is the LIFO reserve/release discipline of the DFS made
    structural — out-of-order release is impossible by construction.
    Undo frames record segment *positions*; they stay valid because the
    LIFO discipline guarantees every later insertion is removed before an
    earlier frame is popped.

    Results are bit-identical to ``earliest_start`` + ``reserve`` on the
    reference profile: the float arithmetic is the same operations in the
    same order, and the forward walk lands on the segment the reference's
    ``bisect`` finds.  The differential property tests pin this down.

    The sanitizer hooks are the reference profile's (one set of helpers
    over the two lists): when debug-mode invariant checking is active,
    every place/unplace verifies structural invariants and node-second
    conservation.  The enabled flag is cached at construction — a view
    lives for one search, well inside any sanitize scope.
    """

    __slots__ = ("capacity", "_t", "_f", "_undo", "_sanitize")

    def __init__(self, profile: AvailabilityProfile) -> None:
        self.capacity = profile.capacity
        self._t: list[float] = list(profile.times)
        self._f: list[int] = list(profile.free)
        #: LIFO frames: (start pos, end pos, nodes, created_start, created_end).
        self._undo: list[tuple[int, int, int, bool, bool]] = []
        self._sanitize = sanitize_enabled()

    @property
    def depth(self) -> int:
        """Number of un-popped :meth:`place` frames on the undo stack."""
        return len(self._undo)

    @property
    def sanitizing(self) -> bool:
        """Whether this view runs debug-mode invariant checks per mutation.

        Cached at construction (see the class docstring); callers that
        batch mutations (:meth:`place_run_fold`) must consult it and fall back
        to per-call :meth:`place` so every check still runs.
        """
        return self._sanitize

    # ------------------------------------------------------------------
    def place(self, nodes: int, duration: float, earliest: float) -> float:
        """Earliest-fit query + commit + undo push, in one call.

        Equivalent to ``start = p.earliest_start(nodes, duration,
        earliest); p.reserve(start, duration, nodes, check=False)`` on the
        reference profile, returning ``start``.  Undone by :meth:`unplace`.
        """
        if nodes > self.capacity:
            raise ValueError(f"{nodes} nodes exceeds capacity {self.capacity}")
        t, f = self._t, self._f
        eps = _EPS

        # --- earliest-fit scan (same arithmetic as the reference) -------
        m = len(t)
        cand = earliest if earliest > t[0] else t[0]
        i = 0
        ni = 1
        while ni < m and t[ni] <= cand:
            i = ni
            ni += 1
        while True:
            if f[i] < nodes:
                # Skip ahead to the next segment with enough free nodes;
                # the final segment always has all of capacity free.
                i += 1
                while f[i] < nodes:
                    i += 1
                cand = t[i]
            end = cand + duration
            end_eps = end - eps
            j = i + 1
            blocked = 0
            while j < m and t[j] < end_eps:
                if f[j] < nodes:
                    blocked = j
                    break
                j += 1
            if not blocked:
                break
            i = blocked
            cand = t[blocked]
        start = cand
        if self._sanitize:
            before = _occupied_node_seconds(t, f, self.capacity, start, end)

        # --- start breakpoint (t[i] <= start < t[i + 1] by the scan) ----
        if start - t[i] <= eps:
            si = i
            created_start = False
        else:
            si = i + 1
            t.insert(si, start)
            f.insert(si, f[i])
            created_start = True
            m += 1

        # --- end breakpoint: continue the walk from the start slot ------
        j = si + 1
        while j < m and t[j] <= end:
            j += 1
        j -= 1
        if end - t[j] <= eps:
            ej = j
            created_end = False
        else:
            ej = j + 1
            t.insert(ej, end)
            f.insert(ej, f[j])
            created_end = True

        # --- claim the nodes over [start pos, end pos) ------------------
        for k in range(si, ej):
            f[k] -= nodes
        self._undo.append((si, ej, nodes, created_start, created_end))
        if self._sanitize:
            _sanitize_delta(
                t, f, self.capacity, before, start, end, nodes * (end - start), "place"
            )
        return start

    def unplace(self) -> None:
        """Pop the top :meth:`place` frame, restoring the profile exactly."""
        si, ej, nodes, created_start, created_end = self._undo.pop()
        t, f = self._t, self._f
        start, end = t[si], t[ej]
        before = (
            _occupied_node_seconds(t, f, self.capacity, start, end)
            if self._sanitize
            else 0.0
        )
        area = nodes * (end - start)
        for k in range(si, ej):
            f[k] += nodes
        # Delete the end breakpoint first so the start position stays valid.
        if created_end:
            del t[ej]
            del f[ej]
        if created_start:
            del t[si]
            del f[si]
        if self._sanitize:
            _sanitize_delta(t, f, self.capacity, before, start, end, -area, "unplace")

    # ------------------------------------------------------------------
    # Batched placement (the search's heuristic-completion chains)
    # ------------------------------------------------------------------
    def checkpoint(self) -> "ProfileCheckpoint":
        """Snapshot the full profile state for :meth:`rollback`.

        One O(segments) copy instead of one undo frame per subsequent
        placement: the search's completion chains place tens of jobs and
        then throw *all* of them away at once, so a bulk snapshot/restore
        beats the per-place LIFO stack there (and nowhere else — for
        single placements :meth:`place`/:meth:`unplace` stay cheaper).
        """
        return (self._t.copy(), self._f.copy(), len(self._undo))

    def rollback(self, state: "ProfileCheckpoint") -> None:
        """Restore a :meth:`checkpoint` exactly.

        Any mix of :meth:`place`, :meth:`place_run_fold` and :meth:`unplace`
        since the snapshot is undone: the segment arrays and undo stack
        return to their checkpointed state (in place, so locals bound to
        the lists stay valid).  The restore is exact, not merely
        equivalent.
        """
        t, f, depth = state
        self._t[:] = t
        self._f[:] = f
        del self._undo[depth:]

    def place_run_fold(
        self,
        idxs: Sequence[int],
        d0: int,
        count: int,
        nodes_arr: Sequence[int],
        dur_arr: Sequence[float],
        earliest: float,
        starts_out: list[float],
        submit: Sequence[float],
        denom: Sequence[float],
        omega: float,
        exc: float,
        slow: float,
        cut_exc: float = inf,
        cut_slow: float = inf,
    ) -> tuple[float, float] | None:
        """Commit ``count`` earliest-fit placements in one tight loop,
        folding the two-level objective as it goes.

        Job ``j`` of the run (``j`` in ``[0, count)``) requests
        ``nodes_arr[i]`` nodes for ``dur_arr[i]`` seconds, where
        ``i = idxs[d0 + j]``; its start is written to ``starts_out[d0 + j]``.
        Starts are bit-identical to ``count`` successive :meth:`place`
        calls — the scan/commit arithmetic below is the same operations in
        the same order — and in the same loop iteration each job's
        ``(excessive wait, bounded slowdown)`` terms are folded into
        ``(exc, slow)`` left-to-right, the association order of
        :mod:`repro.core.deltascore`'s contract; the final accumulators
        are returned — or ``None`` at the first step whose ``(exc, slow)``
        is not lexicographically below ``(cut_exc, cut_slow)`` (the
        defaults never stop it): the search's incumbent, which, when both
        levels only grow along the run, no completion of it can beat.
        **No undo frames are pushed**: the caller must
        bracket the run with :meth:`checkpoint`/:meth:`rollback`.  Skips
        the sanitizer (callers check :attr:`sanitizing` and use per-call
        :meth:`place` when it is on).
        """
        t, f = self._t, self._f
        capacity = self.capacity
        eps = _EPS
        # Suffix minima of the run's node requests: ``suf[q]`` is the
        # smallest request among jobs q..count-1.  Any segment whose free
        # count is below ``suf[q]`` can never host a start (or sit inside
        # a feasible window) for job q or any job after it, so the scan's
        # skip-ahead may begin at the *frontier* — the first segment with
        # ``f >= suf[q]`` — instead of re-walking the packed prefix for
        # every placement.  The frontier only moves forward: free counts
        # only decrease during a run (claims), breakpoint insertions only
        # happen at or after it (every insertion position has
        # ``f >= nodes >= suf[q]``), and ``suf`` is non-decreasing in q.
        # The skipped segments are exactly ones the plain walk would
        # reject, so starts are unchanged bit-for-bit.
        suf = [0] * count
        mv = capacity + 1
        for q in range(count - 1, -1, -1):
            v = nodes_arr[idxs[d0 + q]]
            if v < mv:
                mv = v
            suf[q] = mv
        fnf = 0
        for d in range(d0, d0 + count):
            idx = idxs[d]
            nodes = nodes_arr[idx]
            duration = dur_arr[idx]
            if nodes > capacity:
                raise ValueError(f"{nodes} nodes exceeds capacity {capacity}")
            # The final segment always has all of capacity free, so the
            # frontier walk stops before the end of the array.
            thr = suf[d - d0]
            while f[fnf] < thr:
                fnf += 1

            # --- earliest-fit scan (identical to place()) ---------------
            m = len(t)
            cand = earliest if earliest > t[0] else t[0]
            i = 0
            ni = 1
            while ni < m and t[ni] <= cand:
                i = ni
                ni += 1
            while True:
                if f[i] < nodes:
                    i = fnf if fnf > i + 1 else i + 1
                    while f[i] < nodes:
                        i += 1
                    cand = t[i]
                end = cand + duration
                end_eps = end - eps
                j = i + 1
                blocked = 0
                while j < m and t[j] < end_eps:
                    if f[j] < nodes:
                        blocked = j
                        break
                    j += 1
                if not blocked:
                    break
                i = blocked
                cand = t[blocked]
            starts_out[d] = start = cand

            # --- fold this job's objective terms ------------------------
            wait = start - submit[idx]
            e = wait - omega
            if e > 0.0:
                exc += e
            den = denom[idx]
            slow += (wait + den) / den
            if exc >= cut_exc and (exc > cut_exc or slow >= cut_slow):
                return None

            # --- start breakpoint ---------------------------------------
            if start - t[i] <= eps:
                si = i
            else:
                si = i + 1
                t.insert(si, start)
                f.insert(si, f[i])
                m += 1

            # --- end breakpoint -----------------------------------------
            j = si + 1
            while j < m and t[j] <= end:
                j += 1
            j -= 1
            if end - t[j] <= eps:
                ej = j
            else:
                ej = j + 1
                t.insert(ej, end)
                f.insert(ej, f[j])

            # --- claim the nodes over [start pos, end pos) --------------
            for k in range(si, ej):
                f[k] -= nodes
        return exc, slow

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def earliest_fit(self, nodes: int, duration: float, earliest: float) -> float:
        """The start :meth:`place` would commit, without committing it.

        :meth:`place`'s scan, operation for operation, on a profile left
        untouched; ``nodes`` must not exceed capacity.  Placing more jobs
        only lowers the free-node function and adds breakpoints, so the
        answer never gets earlier as a search path grows: the search's
        wait bound (``_FastSearchRun._wait_bound``) rests on that.
        """
        t, f = self._t, self._f
        m = len(t)
        cand = earliest if earliest > t[0] else t[0]
        i = 0
        ni = 1
        while ni < m and t[ni] <= cand:
            i = ni
            ni += 1
        while True:
            if f[i] < nodes:
                i += 1
                while f[i] < nodes:
                    i += 1
                cand = t[i]
            end_eps = (cand + duration) - _EPS
            j = i + 1
            while j < m and t[j] < end_eps:
                if f[j] < nodes:
                    break
                j += 1
            else:
                return cand
            i = j
            cand = t[j]

    def segments(self) -> list[tuple[float, int]]:
        """The ``(time, free)`` breakpoint list, in time order (a copy)."""
        return list(zip(self._t, self._f))

    def check_invariants(self) -> None:
        """Assert structural invariants of the segment arrays."""
        _check_invariants(self._t, self._f, self.capacity)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        segs = ", ".join(f"{t:.0f}:{n}" for t, n in self.segments())
        return (
            f"SearchProfile(cap={self.capacity}, depth={self.depth}, [{segs}])"
        )
