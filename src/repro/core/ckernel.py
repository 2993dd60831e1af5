"""Optional compiled search kernel: probe, eligibility, and the call in.

``engine="compiled"`` routes a search through ``repro.core._ckernel`` — a
C transcription of the fast engine's delta kernel (the one DFS, the
fused chain place+fold, and the flat-array ``SearchProfile``).  This
module is the boundary that keeps the pure-python engines the single
source of truth, and it imports nothing from :mod:`repro.core.search`
(which imports it, once, and registers the compiled entry beside the
other engines):

- :func:`have_compiled` probes for the built extension;
- :func:`run_kernel` runs one whole search in C, or returns ``None``
  whenever the kernel is absent or the search needs a facility the
  kernel deliberately omits (custom criteria evaluators, the runtime
  sanitizer's per-mutation checks).  The caller then **silently falls
  back** to ``engine="fast"`` — the results are bit-identical either
  way, so the fallback is unobservable except in wall time.

Build it with ``pip install -e .[compiled]`` or, for a ``PYTHONPATH=src``
checkout, ``python setup.py build_ext --inplace`` (see
``docs/performance.md``).  The extension is declared ``optional``: a
missing C toolchain degrades the install to pure python, never fails it.

Bit-identity (same ``SearchResult`` bits as ``engine="fast"`` at any
node budget, including the anytime trace) is enforced by the oracle
fingerprints and the Hypothesis engine-conformance fuzzer in
``tests/``; the kernel is never trusted beyond what those pin down.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any

from repro.core.deltascore import JobArrays
from repro.util.sanitize import sanitize_enabled
from repro.util.timeunits import TIME_EPS

if TYPE_CHECKING:  # pragma: no cover - search.py imports this module
    from repro.core.search import SearchProblem

try:  # the extension is an optional build artifact
    from repro.core import _ckernel as _impl
except Exception:  # pragma: no cover - exercised on pure-python installs
    _impl = None  # type: ignore[assignment]


def have_compiled() -> bool:
    """Whether the compiled search kernel is importable in this install."""
    return _impl is not None


def pure_python_requested() -> bool:
    """Whether ``REPRO_PURE_PYTHON=1`` opts this process out of the kernel."""
    return os.environ.get("REPRO_PURE_PYTHON", "").strip() == "1"


def default_engine() -> str:
    """The sequential engine a policy should default to in this install.

    ``"compiled"`` when the extension is importable — results are
    bit-identical to ``"fast"`` by the conformance harness, so the faster
    engine is safe to prefer — and ``"fast"`` otherwise, or when the
    ``REPRO_PURE_PYTHON=1`` escape hatch asks for the pure-python path
    (debugging, profiling the reference implementation, bisecting a
    suspected kernel discrepancy).  Read at policy-construction time, so
    tests can flip the environment per policy.
    """
    if have_compiled() and not pure_python_requested():
        return "compiled"
    return "fast"


def _kernel_arrays(problem: SearchProblem) -> JobArrays | None:
    """The job columns to hand the C kernel, or ``None`` when this search
    has to run in python to give bit-identical results.

    Anything the kernel deliberately omits routes to the fast engine:
    custom evaluators (arbitrary Python accumulators), sanitized runs
    (per-mutation Python invariant checks), and malformed inputs whose
    error behaviour the pure engines define (over-capacity jobs, a
    non-positive planning runtime, a profile without its all-free tail
    segment).  The checks read the ``nodes`` and ``runtime`` columns
    themselves, so they hold for exactly what C walks.
    """
    if _impl is None:
        return None
    if problem.evaluator is not None:
        return None
    if sanitize_enabled():
        return None
    profile = problem.profile
    if not profile.free or profile.free[-1] != profile.capacity:
        return None
    arrays = problem.job_arrays()
    if max(arrays.nodes, default=0) > profile.capacity:
        return None
    if not min(arrays.runtime, default=1.0) > 0:
        return None
    return arrays


def run_kernel(
    problem: SearchProblem,
    algorithm: str,
    node_limit: int | None,
    prune: bool,
    record_anytime: bool,
) -> tuple[Any, ...] | None:
    """One whole search in C, or ``None`` when it has to run in python;
    the arguments are those of every ``search._ENGINES`` entry.

    The tuple is ``run_search``'s: ``(best_exc, best_slow, best_d,
    best_idx, best_starts, nodes_visited, leaves_evaluated,
    iterations_started, limit_hit, improved_after_first, anytime)`` with
    jobs named by their index in ``problem.jobs`` and ``anytime`` a list of
    ``(nodes_visited, exc, slow, d)`` or ``None``.
    """
    ja = _kernel_arrays(problem)
    if ja is None:
        return None
    assert _impl is not None  # _kernel_arrays checked
    profile = problem.profile
    raw: tuple[Any, ...] = _impl.run_search(
        1 if algorithm == "lds" else 0,
        -1 if node_limit is None else node_limit,
        1 if prune else 0,
        1 if record_anytime else 0,
        TIME_EPS,
        profile.times,  # C copies both lists and writes to neither
        profile.free,
        ja.submit,
        ja.nodes,
        ja.runtime,
        ja.denom,
        problem.now,
        problem.omega,
    )
    return raw
