"""The optional compiled search kernel: probe, fallback, eligibility,
and bit-identity on fixed instances.

The random-instance sweep lives in ``test_engine_conformance.py`` (the
compiled engine joins ``CONFORMANCE_ENGINES`` whenever the extension is
importable); this file owns everything about the *boundary*:

- ``engine="compiled"`` without the extension silently falls back to the
  fast engine with bit-identical results (fallback was picked over
  raising: an install without a C toolchain must still run);
- searches needing facilities the kernel omits — wall-clock deadlines,
  criteria evaluators, the runtime sanitizer — route to the fast engine
  even when the kernel is present;
- fixed-instance fingerprint identity at edge budgets (empty problem,
  single job, exhaustive, prune, anytime traces);
- ``make_policy`` defaults to the kernel exactly when it is importable
  and ``REPRO_PURE_PYTHON=1`` does not opt out.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import ckernel
from repro.core.ckernel import _kernel_arrays, default_engine, have_compiled
from repro.core.criteria import paper_objective
from repro.core.scheduler import make_policy
from repro.core.search import DiscrepancySearch, resolve_runtimes
from repro.util.sanitize import sanitized
from tests.oracles import (
    InstanceSpec,
    build_problem,
    fingerprint,
    replay_workload,
    with_criteria,
)

needs_kernel = pytest.mark.skipif(
    not have_compiled(), reason="compiled kernel not built"
)

#: A small fixed decision point exercising a busy profile and job
#: diversity (shrunk-style literal, re-typeable).
SMALL = InstanceSpec(
    capacity=8,
    jobs=(
        (0.0, 3, 3600.0),
        (600.0, 8, 900.0),
        (1200.0, 1, 7200.0),
        (9000.0, 5, 600.0),
    ),
    segments=((14400.0, 2), (18000.0, 5), (25200.0, 8)),
    omega=900.0,
    heuristic="lxf",
)


def _search(engine, problem, algorithm="dds", node_limit=64, **kw):
    return DiscrepancySearch(
        algorithm, node_limit=node_limit, engine=engine, **kw
    ).search(problem)


# ----------------------------------------------------------------------
# Fallback: engine="compiled" must work on every install
# ----------------------------------------------------------------------
def test_compiled_engine_without_extension_falls_back_silently(monkeypatch):
    """With the extension absent, ``engine="compiled"`` is the fast
    engine: same result bits, no error, no warning."""
    monkeypatch.setattr(ckernel, "_impl", None)
    assert not have_compiled()
    problem = SMALL.to_problem()
    compiled = _search("compiled", problem, record_anytime=True)
    fast = _search("fast", problem, record_anytime=True)
    assert fingerprint(compiled) == fingerprint(fast)


def test_probe_matches_impl_presence():
    assert have_compiled() == (ckernel._impl is not None)


@needs_kernel
def test_time_limited_search_routes_to_fast_engine():
    """Wall-clock deadlines poll ``perf_counter`` on a sparse cadence the
    kernel deliberately omits; the wrapper must hand the whole search to
    the fast engine rather than drop the deadline."""
    problem = SMALL.to_problem()
    assert _kernel_arrays(problem, time_limit_seconds=30.0) is None
    result = DiscrepancySearch(
        "dds", node_limit=None, engine="compiled", time_limit_seconds=30.0
    ).search(problem)
    fast = DiscrepancySearch(
        "dds", node_limit=None, engine="fast", time_limit_seconds=30.0
    ).search(problem)
    # A 30s limit never fires on a 4-job tree, so both runs are the
    # deterministic exhaustive search and must agree exactly.
    assert fingerprint(result) == fingerprint(fast)


@needs_kernel
def test_evaluator_and_sanitizer_disqualify_the_kernel():
    """Both states pinned explicitly so the test also holds when the
    whole suite runs under ``REPRO_SANITIZE=1`` (the chaos CI job)."""
    problem = SMALL.to_problem()
    with_eval = with_criteria(problem, paper_objective())
    with sanitized(False):
        assert _kernel_arrays(problem, None) is not None
        assert _kernel_arrays(with_eval, None) is None
        with sanitized(True):
            assert _kernel_arrays(problem, None) is None
        assert _kernel_arrays(problem, None) is not None


@needs_kernel
def test_malformed_profiles_and_oversized_jobs_route_to_python():
    """The pure engines define the error behaviour for jobs that exceed
    capacity; the C walk would run off the profile, so the wrapper must
    keep such problems (and profiles without the all-free tail) on the
    python path."""
    problem = SMALL.to_problem()
    big = dataclasses.replace(
        problem.jobs[0], nodes=problem.profile.capacity + 1
    )
    oversized = dataclasses.replace(
        problem, jobs=(big,) + problem.jobs[1:]
    )
    assert _kernel_arrays(oversized, None) is None


@needs_kernel
@pytest.mark.parametrize("runtime", [0.0, -60.0])
def test_non_positive_planning_runtime_routes_to_python(runtime):
    """A reservation of no length is an error the python engines raise
    (``check_positive`` in the reference profile, hoisted to one check per
    search in the fast engine); C would commit it, so it never gets it."""
    problem = SMALL.to_problem()
    runtimes = {**resolve_runtimes(problem), problem.jobs[1].job_id: runtime}
    degenerate = dataclasses.replace(problem, runtimes=runtimes)
    with sanitized(False):  # the sanitizer alone would stand it down
        assert _kernel_arrays(problem, None) is not None
        assert _kernel_arrays(degenerate, None) is None
    with pytest.raises(ValueError, match="duration must be > 0"):
        _search("compiled", degenerate)


# ----------------------------------------------------------------------
# Fixed-instance bit-identity (skip-if-unavailable)
# ----------------------------------------------------------------------
@needs_kernel
@pytest.mark.parametrize("algorithm", ["dds", "lds"])
@pytest.mark.parametrize("node_limit", [1, 3, 24, None])
@pytest.mark.parametrize("prune", [False, True])
def test_small_instance_identity(algorithm, node_limit, prune):
    problem = SMALL.to_problem()
    compiled = _search(
        "compiled", problem, algorithm, node_limit,
        prune=prune, record_anytime=True,
    )
    fast = _search(
        "fast", problem, algorithm, node_limit,
        prune=prune, record_anytime=True,
    )
    assert fingerprint(compiled) == fingerprint(fast)


@needs_kernel
@pytest.mark.parametrize("n_jobs", [0, 1, 2])
def test_degenerate_queue_sizes(n_jobs):
    spec = InstanceSpec(
        capacity=8,
        jobs=SMALL.jobs[:n_jobs],
        segments=((14400.0, 8),),
        omega=600.0,
        heuristic="fcfs",
    )
    problem = spec.to_problem()
    for algorithm in ("dds", "lds"):
        compiled = _search(
            "compiled", problem, algorithm, None, record_anytime=True
        )
        fast = _search("fast", problem, algorithm, None, record_anytime=True)
        assert fingerprint(compiled) == fingerprint(fast)


@needs_kernel
@pytest.mark.parametrize("algorithm,heuristic", [("dds", "lxf"), ("lds", "fcfs")])
def test_bench_decision_point_identity(algorithm, heuristic):
    """The 30-job benchmark instance at a mid-iteration truncating budget
    — the exact scenario every committed perf number is measured on."""
    problem = build_problem(heuristic)
    for prune in (False, True):
        compiled = _search(
            "compiled", problem, algorithm, 2_000,
            prune=prune, record_anytime=True,
        )
        fast = _search(
            "fast", problem, algorithm, 2_000,
            prune=prune, record_anytime=True,
        )
        assert fingerprint(compiled) == fingerprint(fast)


# ----------------------------------------------------------------------
# A paper month through the policy, engine against engine
# ----------------------------------------------------------------------
def _replayed_month(scale, engine):
    """July 2003 under ``DDS/lxf/dynB`` at L=1K on ``engine``: every
    decision's fingerprint, every job's exact start and end, the decision
    count and the policy's stats."""
    decisions, result = replay_workload(
        engine, node_limit=1000, seed=2005, scale=scale
    )
    schedule = sorted(
        (j.job_id, j.start_time.hex(), j.end_time.hex()) for j in result.jobs
    )
    return decisions, schedule, result.decision_count, result.extra


@pytest.mark.tier2
@pytest.mark.parametrize(
    "scale,engine",
    [pytest.param(1.0, "compiled", marks=needs_kernel), (0.25, "reference")],
)
def test_month_through_the_policy_is_bit_identical_to_the_fast_engine(scale, engine):
    """The compiled engine is every policy's default, and all engines are
    fed through one boundary — the ``SearchProblem`` and ``JobArrays``
    the policy marshals.  So: the whole month at full scale, compiled
    against pure python, and a quarter of it against the reference
    engine (which reads runtimes by ``job_id`` where the other two read
    the arrays).  With sanitizing off, or ``compiled`` would quietly be
    ``fast``."""
    with sanitized(False):
        replayed = _replayed_month(scale, engine)
        assert replayed == _replayed_month(scale, "fast")
    stats = replayed[-1]  # policy.stats rides into SimulationResult.extra
    assert stats["searched_decisions"] > 100 and stats["improved_decisions"] > 0


# ----------------------------------------------------------------------
# The default engine of a policy
# ----------------------------------------------------------------------
def test_make_policy_defaults_to_the_install_engine():
    """The default is install-dependent: the compiled kernel when built
    (bit-identical, faster), the pure fast engine otherwise."""
    policy = make_policy("dds", "lxf", node_limit=500)
    assert policy.searcher.engine == default_engine()
    assert policy.searcher.engine == ("compiled" if have_compiled() else "fast")


def test_make_policy_honours_pure_python_opt_out(monkeypatch):
    monkeypatch.setenv("REPRO_PURE_PYTHON", "1")
    assert default_engine() == "fast"
    assert make_policy("dds", "lxf", node_limit=500).searcher.engine == "fast"

