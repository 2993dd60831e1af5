"""Struct-of-arrays instance view and fold-order contract for delta scoring.

The fast engine's per-node hot path (see :mod:`repro.core.search`) scores
candidate schedules *incrementally* and addresses everything by the job's
**dense index** (its position in ``SearchProblem.jobs``): instead of
re-reading job attributes and a ``job_id``-keyed runtime dict at each
placement, it keeps every per-job quantity in flat arrays and threads one
accumulator tuple down the path, extended at each visit by a fold
``fold(acc, i, start)`` bound once per search.  This module owns that
representation:

- :class:`JobArrays` — the struct-of-arrays view of one decision point's
  job set (submit times, node counts, planning runtimes, and the
  floor-clamped slowdown denominators);
- the association-order contract below, which every fold over a path —
  the ``fold`` closures of ``repro.core.search._index_strategy``,
  ``SearchProfile.place_run_fold``, ``run_search`` in C — has to keep.
  In python the two-level terms are spelled three times:
  ``build_strategy``'s ``extend`` (the spec) and those two.  Local search
  has no spelling of its own: ``evaluate_order`` scores an order by
  running it as iteration 0 of a search.

**The association-order contract.**  The accumulator is an N-level tuple,
one float per objective level, each folded over the jobs strictly left to
right in placement order with the level's own operation (``+`` for a sum,
``max`` for a bottleneck: :meth:`~repro.core.criteria.Criterion.accumulate`)::

    acc[k] = op_k(op_k(op_k(initial_k, t_k(job_1)), t_k(job_2)) ..., t_k(job_m))

For the paper's objective that is two sums from ``(0.0, 0.0)``.  Every
total must be **bit-equal** (ulp-exact, not approximately equal) to the
reference engine's tuple accumulation, which folds in that order.
Floating-point addition is not associative, so any re-association — a
pairwise numpy ``sum``, ``math.fsum``, accumulating the chain tail
separately and adding it to the prefix — would drift from the spec by
ulps and break the engines' bit-identity contract.  Every fold is a
plain left-to-right scalar loop; a Hypothesis property in
``tests/test_deltascore.py`` pins the fused placement loop to the
reference tuple-sum bit-for-bit over arbitrary float magnitudes and
incoming accumulators.  Backtracking never subtracts: a child's tuple is
a new object and the parent's is still there.

The two-level per-term arithmetic also replicates the reference
operations exactly (:func:`repro.core.search.build_strategy`)::

    wait  = start - submit          # seconds waited
    e     = max(0.0, wait - omega)  # level 1: excessive wait
    s     = (wait + denom) / denom  # level 2: bounded slowdown

with ``denom`` pre-clamped to the slowdown floor (the clamp is
placement-independent, so it is hoisted into :class:`JobArrays` once per
search).  Skipping the ``+ 0.0`` when ``e`` is not positive is exact:
the accumulator starts at ``+0.0`` and never goes negative, and
``x + 0.0 == x`` bit-for-bit for every non-negative ``x``.  A custom
evaluator's terms need no replica: both engines call its ``extend`` on
the same ``(job, start)`` sequence.

There is no vectorized fold: a numpy ``add.accumulate`` path for long
chains tied with the fused scalar loop at 96–512 jobs and no workload
queues more than 63 (``docs/performance.md``, "Why there is no vector
path").
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.simulator.job import Job


class JobArrays:
    """Flat per-job arrays for one decision point, dense-index addressed.

    ``submit[i]``, ``nodes[i]``, ``runtime[i]`` mirror
    ``SearchProblem.jobs[i]``; ``denom[i]`` is the slowdown denominator
    with the floor clamp already applied (identical bits to clamping at
    every visit, hoisted because it never changes within a search).
    """

    __slots__ = ("submit", "nodes", "runtime", "denom")

    def __init__(
        self,
        submit: list[float],
        nodes: list[int],
        runtime: list[float],
        denom: list[float],
    ) -> None:
        self.submit = submit
        self.nodes = nodes
        self.runtime = runtime
        self.denom = denom

    @classmethod
    def build(
        cls, jobs: Sequence[Job], rt: Mapping[int, float], floor: float
    ) -> "JobArrays":
        """The SoA view of ``jobs`` with planning runtimes ``rt``.

        ``floor`` is ``ObjectiveConfig.slowdown_floor``; the clamp below
        matches ``build_strategy``'s ``if denom < floor: denom = floor``
        branch bit-for-bit (same comparison, same chosen value).
        """
        submit = [job.submit_time for job in jobs]
        nodes = [job.nodes for job in jobs]
        runtime = [rt[job.job_id] for job in jobs]
        denom = [r if r >= floor else floor for r in runtime]
        return cls(submit, nodes, runtime, denom)

    def __eq__(self, other: object) -> bool:
        """Column-for-column equality, exact on the floats."""
        if not isinstance(other, JobArrays):
            return NotImplemented
        return all(
            getattr(self, column) == getattr(other, column)
            for column in self.__slots__
        )

