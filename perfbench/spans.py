"""In-memory spans recorded from outside the program, and their arithmetic.

A span is one call into a layer: its name (``<layer>.<call>``), start and
end on :func:`time.perf_counter`, the span that caused it, the pass or
request it belongs to, and a few counts read at the same boundary.  The
proxies in :mod:`perfbench.probes` record them; the program under ``src/``
is not edited.

A layer's *self time* is its spans' duration minus the part their child
spans cover, so the self times of one traced pass add up to the duration
of its root spans — :func:`self_times` is that arithmetic and
:func:`layer_fractions` the shares the ``*.self_frac`` metrics report.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any


class Span:
    """One recorded call.  ``end`` stays ``None`` while the call runs."""

    __slots__ = ("id", "name", "start", "end", "parent", "op", "counts")

    def __init__(self, id: int, name: str, parent: "int | None", op: "int | None") -> None:
        self.id = id
        self.name = name
        self.start = 0.0
        self.end: float | None = None
        self.parent = parent
        self.op = op
        self.counts: dict[str, Any] | None = None

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]

    @property
    def duration(self) -> float:
        assert self.end is not None, f"span {self.name} never ended"
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "counts": self.counts,
        }


class Tracer:
    """Collects spans from any thread.

    Nesting inside one thread is implicit (a per-thread stack); a span
    that continues work begun on another thread — a tenant's ``handle``
    on an executor thread, caused by a client request on the event loop —
    names its parent explicitly.  Spans opened with :meth:`begin` are not
    pushed on the stack, because coroutines interleave on the loop thread
    and would pop each other's entries.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        #: The open client request span of each tenant (closed loop: one
        #: outstanding request per tenant), so the service-side wrappers
        #: can name their cause.
        self.inflight: dict[str, Span] = {}
        #: Every N-th search decision's inputs, kept for the layer replay.
        self.samples: list[dict[str, Any]] = []

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    # The clock is read last when a span starts and first when it ends,
    # so the tracer's own bookkeeping lands in the parent's self time,
    # not inside the span.
    def begin(self, name: str, parent: "Span | None" = None, op: "int | None" = None) -> Span:
        """Start a span without nesting under it (see the class docstring)."""
        if op is None and parent is not None:
            op = parent.op
        span = Span(next(self._ids), name, None if parent is None else parent.id, op)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span, counts: "dict[str, Any] | None" = None) -> None:
        span.end = time.perf_counter()
        span.counts = counts

    def open(self, name: str, parent: "Span | None" = None, op: "int | None" = None) -> Span:
        """Start a span under ``parent`` (default: the span this thread has
        open) and nest whatever the thread calls until :meth:`close`."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = self.begin(name, parent, op)
        stack.append(span)
        return span

    def close(self, span: Span, counts: "dict[str, Any] | None" = None) -> None:
        span.end = time.perf_counter()
        span.counts = counts
        self._local.stack.pop()


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            assert span.end is not None
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: dict[int, float] = {}
    for span in spans:
        assert span.end is not None
        out[span.id] = span.duration - _covered(
            span.start, span.end, children.get(span.id, [])
        )
    return out


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer (the first component of the span name)."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for span in spans:
        out[span.layer] = out.get(span.layer, 0.0) + selfs[span.id]
    return out


def root_seconds(spans: list[Span]) -> float:
    """Total duration of the spans nothing caused: the traced pass itself.

    One span for a batch pass; for a service pass the tenant drivers run
    concurrently, so this is their summed client time, not the wall.
    """
    return sum(s.duration for s in spans if s.parent is None)


def layer_fractions(spans: list[Span]) -> dict[str, float]:
    """Each layer's share of :func:`root_seconds`; the shares sum to 1."""
    total = root_seconds(spans)
    return {layer: sec / total for layer, sec in layer_self_seconds(spans).items()}
