"""Unit tests for the event queue."""

import inspect
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.events import Event, EventKind, EventQueue
from repro.util.timeunits import TIME_EPS, time_eq


def test_pops_in_time_order():
    q = EventQueue()
    q.push(5.0, EventKind.ARRIVAL, "a")
    q.push(1.0, EventKind.ARRIVAL, "b")
    q.push(3.0, EventKind.FINISH, "c")
    assert [q.pop().payload for _ in range(3)] == ["b", "c", "a"]


def test_ties_break_by_insertion_order():
    q = EventQueue()
    q.push(1.0, EventKind.ARRIVAL, "first")
    q.push(1.0, EventKind.FINISH, "second")
    q.push(1.0, EventKind.ARRIVAL, "third")
    assert [q.pop().payload for _ in range(3)] == ["first", "second", "third"]


def test_pop_simultaneous_batches_equal_times():
    q = EventQueue()
    q.push(1.0, EventKind.ARRIVAL, "a")
    q.push(1.0, EventKind.FINISH, "b")
    q.push(2.0, EventKind.ARRIVAL, "c")
    batch = q.pop_simultaneous()
    assert [e.payload for e in batch] == ["a", "b"]
    assert len(q) == 1
    assert q.peek_time() == 2.0


def test_pop_simultaneous_tolerance_is_time_eps():
    """Regression: "simultaneous" must be the system-wide TIME_EPS.

    The queue used to hardcode ``eps=1e-9`` while the profile and the
    timeseries used ``TIME_EPS`` — two drifting definitions meant the
    engine could batch two events into one decision point that
    ``AvailabilityProfile.from_running`` refuses to fold (or vice versa).
    """
    default = inspect.signature(EventQueue.pop_simultaneous).parameters["eps"]
    assert default.default == TIME_EPS


@pytest.mark.parametrize("gap_factor", [0.5, 1.0, 2.0, 10.0])
def test_pop_simultaneous_agrees_with_time_eq(gap_factor):
    """Events batch together exactly when ``time_eq`` calls them equal,
    so the engine and the profile share one notion of simultaneity."""
    base = 1_000.0
    gap = gap_factor * TIME_EPS
    q = EventQueue()
    q.push(base, EventKind.ARRIVAL, "a")
    q.push(base + gap, EventKind.FINISH, "b")
    batch = q.pop_simultaneous()
    if time_eq(base, base + gap):
        assert [e.payload for e in batch] == ["a", "b"]
        assert len(q) == 0
    else:
        assert [e.payload for e in batch] == ["a"]
        assert q.peek_time() == base + gap


def test_pop_empty_raises():
    q = EventQueue()
    with pytest.raises(IndexError):
        q.pop()
    with pytest.raises(IndexError):
        q.pop_simultaneous()
    assert q.peek_time() is None


def test_bool_and_len():
    q = EventQueue()
    assert not q
    q.push(0.0, EventKind.ARRIVAL)
    assert q and len(q) == 1


def test_iteration_sees_every_event_without_consuming():
    q = EventQueue()
    for t, name in ((5.0, "c"), (1.0, "a"), (3.0, "b")):
        q.push(t, EventKind.ARRIVAL, name)
    # Heap layout, not firing order: compare as a set.
    assert {e.payload for e in q} == {"a", "b", "c"}
    assert len(q) == 3
    assert q.count_through(3.0) == 2
    assert [q.pop().payload for _ in range(3)] == ["a", "b", "c"]


def test_order_is_time_then_seq_and_never_reaches_kind_or_payload():
    """Events are tuples so the heap compares them in C; ``seq`` is unique
    within a queue, so a comparison is decided before it could reach the
    unorderable ``kind`` and ``payload``."""
    assert issubclass(Event, tuple) and Event.__lt__ is tuple.__lt__
    q = EventQueue()
    payloads = [object() for _ in range(6)]
    kinds = [EventKind.ARRIVAL, EventKind.FINISH] * 3
    for kind, payload in zip(kinds, payloads):  # one instant, six events
        pushed = q.push(7.0, kind, payload)
        assert (pushed.time, pushed.kind, pushed.payload) == (7.0, kind, payload)
    assert [e.seq for e in q.pop_simultaneous()] == list(range(6))
    # What a tie past ``seq`` would do — only events of two queues can tie.
    other = EventQueue().push(7.0, EventKind.ARRIVAL)
    with pytest.raises(TypeError):
        min(EventQueue().push(7.0, EventKind.FINISH), other)


# ----------------------------------------------------------------------
# Pickling (hypothesis): a tenant snapshot pickles the event queue, so a
# round-trip must preserve drain order and continue the tie-break
# sequence across the snapshot boundary.
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=40
    ),
    split=st.integers(min_value=0, max_value=40),
)
def test_event_queue_pickle_roundtrip_preserves_order(times, split):
    queue = EventQueue()
    for i, t in enumerate(times):
        queue.push(t, EventKind.ARRIVAL, payload=i)
    drained = [queue.pop() for _ in range(min(split, len(queue)))]

    clone: EventQueue = pickle.loads(pickle.dumps(queue))
    # Same remaining drain order...
    rest_a = [(e.time, e.seq, e.payload) for e in _drain(queue)]
    rest_b = [(e.time, e.seq, e.payload) for e in _drain(clone)]
    assert rest_a == rest_b
    # ... and pushes after the snapshot continue the tie-break sequence.
    seqs = {e.seq for e in drained} | {s for _, s, _ in rest_a}
    follow_up = clone.push(0.0, EventKind.FINISH)
    assert follow_up.seq == len(times)
    assert follow_up.seq not in seqs


def _drain(queue: EventQueue):
    while queue:
        yield queue.pop()
