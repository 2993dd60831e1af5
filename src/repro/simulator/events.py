"""Event queue for the discrete-event simulator.

Only two event kinds exist in this system — job arrival and job completion —
because the policies are non-preemptive and make decisions only at those
points (paper Section 2).  Ties are broken by a monotone sequence number so
runs are fully deterministic: simultaneous events fire in insertion order,
with completions inserted before the arrivals they unblock.
"""

from __future__ import annotations

import enum
import heapq
from typing import Any, Iterator, NamedTuple

from repro.util.timeunits import TIME_EPS, time_eq


class EventKind(enum.Enum):
    ARRIVAL = "arrival"
    FINISH = "finish"


class Event(NamedTuple):
    """A scheduled simulator event, ordered by (time, seq).

    A tuple, so the heap's sifts compare in C.  ``seq`` is unique within
    a queue, which means the comparison is always decided by ``(time,
    seq)`` and never reaches ``kind`` or ``payload``.
    """

    time: float
    seq: int
    kind: EventKind
    payload: Any = None


class EventQueue:
    """A deterministic min-heap of :class:`Event`.

    The tie-break sequence is a plain integer counter (not an
    ``itertools.count``) so a queue snapshot pickles and restores exactly
    — a tenant restored from a snapshot (:mod:`repro.service.recovery`)
    must continue the sequence where the interrupted engine left off.
    """

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._next_seq = 0

    def push(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event; returns it (useful for assertions in tests).

        Causality (no events scheduled before the simulation clock) is
        enforced by the engine, which knows ``now``; the queue itself only
        guarantees deterministic ordering.
        """
        event = Event(time=time, seq=self._next_seq, kind=kind, payload=payload)
        self._next_seq += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        if not self._heap:
            raise IndexError("pop from empty EventQueue")
        return heapq.heappop(self._heap)

    def peek_time(self) -> float | None:
        """Time of the next event, or ``None`` if the queue is empty."""
        return self._heap[0].time if self._heap else None

    def count_through(self, time: float, eps: float = TIME_EPS) -> int:
        """How many queued events fall at or before ``time`` (within ``eps``)."""
        bound = time + eps
        return sum(1 for event in self if event.time <= bound)

    def pop_simultaneous(self, eps: float = TIME_EPS) -> list[Event]:
        """Pop every event sharing the earliest timestamp (within ``eps``).

        ``eps`` defaults to :data:`repro.util.timeunits.TIME_EPS` so the
        engine's notion of "simultaneous" is the same one the availability
        profile and the timeseries use — a batch the engine folds into one
        decision point is also one breakpoint to ``from_running``.
        """
        if not self._heap:
            raise IndexError("pop from empty EventQueue")
        first = heapq.heappop(self._heap)
        batch = [first]
        while self._heap and time_eq(self._heap[0].time, first.time, eps):
            batch.append(heapq.heappop(self._heap))
        return batch

    def __iter__(self) -> Iterator[Event]:
        """Every queued event, in no particular order (heap layout, not
        firing order); the queue is not consumed."""
        return iter(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
