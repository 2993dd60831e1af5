"""The optional compiled search kernel: probe, fallback, eligibility,
and bit-identity on fixed instances.

The random-instance sweep lives in ``test_engine_conformance.py`` (the
compiled engine joins ``CONFORMANCE_ENGINES`` whenever the extension is
importable); this file owns everything about the *boundary*:

- ``engine="compiled"`` without the extension silently falls back to the
  fast engine with bit-identical results (fallback was picked over
  raising: an install without a C toolchain must still run);
- searches needing facilities the kernel omits — criteria evaluators,
  the runtime sanitizer — route to the fast engine even when the kernel
  is present;
- fixed-instance fingerprint identity at edge budgets (empty problem,
  single job, exhaustive, prune, anytime traces);
- the chain's checkpoint rollback, at every budget of a chain-dense
  prefix of a queue deep enough for a wrong restore to show, and
  nothing left behind from one search to the next;
- ``make_policy`` defaults to the kernel exactly when it is importable
  and ``REPRO_PURE_PYTHON=1`` does not opt out.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import pickle
import subprocess
import sys

import pytest

from repro.core import ckernel
from repro.core.ckernel import _kernel_arrays, default_engine, have_compiled
from repro.core.criteria import paper_objective
from repro.core.schedule_builder import build_schedule
from repro.core.scheduler import make_policy
from repro.core.search import (
    DiscrepancySearch,
    child_rule,
    resolve_runtimes,
    root_state,
)
from repro.util.sanitize import sanitized
from tests.oracles import (
    NOW,
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
def test_evaluator_and_sanitizer_disqualify_the_kernel():
    """Both states pinned explicitly so the test also holds when the
    whole suite runs under ``REPRO_SANITIZE=1`` (the chaos CI job)."""
    problem = SMALL.to_problem()
    with_eval = with_criteria(problem, paper_objective())
    with sanitized(False):
        assert _kernel_arrays(problem) is not None
        assert _kernel_arrays(with_eval) is None
        with sanitized(True):
            assert _kernel_arrays(problem) is None
        assert _kernel_arrays(problem) is not None


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
    assert _kernel_arrays(oversized) is None


@needs_kernel
@pytest.mark.parametrize(
    "field,value,error",
    [
        (5, [], ValueError),  # an empty profile
        (6, [8], ValueError),  # fewer free counts than times
        (8, [1, 2], ValueError),  # a job column of the wrong length
        (5, [0.0, "x"], TypeError),  # a time that is not a number
        (9, [None], TypeError),  # a runtime that is not a number
        (7, (0.0,), TypeError),  # a tuple, not a list
    ],
)
def test_run_search_refuses_malformed_arrays(field, value, error):
    """``ck_init`` parses the profile straight into the search's arena;
    every way a hand-made call can be malformed is a Python exception,
    not a read past an array (the ASan CI step runs this too)."""
    args = [0, 10, 0, 0, 1e-9, [0.0, 60.0], [4, 8], [0.0], [2], [30.0], [1.0],
            0.0, 60.0]
    args[field] = value
    with pytest.raises(error):
        ckernel._impl.run_search(*args)


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
        assert _kernel_arrays(problem) is not None
        assert _kernel_arrays(degenerate) is None
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
# The chain's checkpoint: one copy of the profile in, one copy back out
# ----------------------------------------------------------------------
#: 40 jobs (paper months queue up to 63) on a machine that is nearly full
#: now and frees nodes at 24 distinct instants.  Half-second runtimes end
#: between breakpoints, so a chain inserts breakpoints at both ends of the
#: array — before the first release and past the last — and a wrong
#: restore shifts every placement after it.
DEEP = InstanceSpec(
    capacity=32,
    jobs=tuple(
        (float((k * 379) % 14400), 1 + (k * 7) % 24, 600.5 + (k * 1237) % 20000)
        for k in range(40)
    ),
    segments=((NOW, 4),)
    + tuple((NOW + 900.0 * k + (k * k) % 97, 4 + k) for k in range(1, 25))
    + ((NOW + 900.0 * 25, 32),),
    omega=3600.0,
    heuristic="lxf",
)


def _dds_nodes(n, iterations):
    """Nodes in the first ``iterations`` iterations of an unpruned DDS
    over ``n`` jobs, counted off ``child_rule`` alone."""

    @functools.lru_cache(maxsize=None)
    def below(s, m):
        rule = child_rule(False, s, m)
        if rule is None:
            return m  # the chain: m placements, then the leaf
        lo, s0, s1 = rule
        return sum(1 + below(s1 if r else s0, m - 1) for r in range(lo, m))

    return sum(below(root_state(False, it), n) for it in range(iterations))


def _deep_budgets():
    """Every budget through DDS iteration 0 and the first ten chains of
    iteration 1 — a chain truncated at each of its positions, pruned or
    not — then budgets 1.5x apart to the end of DDS's first three
    iterations (deep in LDS's third), where interior frames sit on top of
    thousands of rolled-back chains.  Every budget that far, on the pure
    engine, would take minutes."""
    n = len(DEEP.jobs)
    budgets = list(range(1, n + 10 * n + 1))
    end = _dds_nodes(n, 3)
    while budgets[-1] < end:
        budgets.append(min(end, budgets[-1] * 3 // 2))
    return budgets


def _exact(result):
    """The fingerprint with every start's bits spelled out."""
    starts = tuple(sorted((i, s.hex()) for i, s in result.best_starts.items()))
    return fingerprint(result) + (starts,)


def test_deep_instance_inserts_breakpoints_at_both_ends():
    problem = DEEP.to_problem()
    times = problem.profile.times
    placed = build_schedule(problem.jobs, problem.profile, problem.now)
    ends = [start + job.runtime for job, start in placed]
    assert min(ends) < times[1] and max(ends) > times[-1]
    assert len({start for _, start in placed} - set(times)) > 10


@needs_kernel
@pytest.mark.parametrize("algorithm", ["dds", "lds"])
@pytest.mark.parametrize("prune", [False, True])
def test_chain_rollback_at_every_budget(algorithm, prune):
    """Each exit of ``ck_chain`` restores the checkpoint: the leaf, a
    prune mid-chain, a budget stop inside a pruned chain — and, unpruned,
    the truncated chain that never places at all.  Sanitizing off, or
    ``compiled`` would quietly be ``fast``."""
    problem = DEEP.to_problem()
    with sanitized(False):
        for node_limit in _deep_budgets():
            compiled = _search(
                "compiled", problem, algorithm, node_limit,
                prune=prune, record_anytime=True,
            )
            fast = _search(
                "fast", problem, algorithm, node_limit,
                prune=prune, record_anytime=True,
            )
            assert _exact(compiled) == _exact(fast), node_limit


_FRESH = """
import pickle, sys
from repro.core.search import DiscrepancySearch
from repro.util.sanitize import set_sanitize
from tests.test_compiled_kernel import DEEP, _exact
set_sanitize(False)
problem = DEEP.to_problem()
out = {}
for key in reversed(pickle.load(sys.stdin.buffer)):
    algorithm, node_limit, prune = key
    out[key] = _exact(DiscrepancySearch(
        algorithm, node_limit=node_limit, engine="compiled", prune=prune,
        record_anytime=True,
    ).search(problem))
pickle.dump(out, sys.stdout.buffer)
"""


@needs_kernel
def test_back_to_back_searches_match_fresh_ones():
    """Nothing one search leaves in memory reaches the next: 200 searches
    in a row equal the same searches run in reverse order by a fresh
    interpreter, and no call writes to the problem's profile (C copies
    it, python's view copies it)."""
    problem = DEEP.to_problem()
    times, free = list(problem.profile.times), list(problem.profile.free)
    keys = [
        (algorithm, node_limit, prune)
        for node_limit in range(7, 7 + 50 * 37, 37)
        for algorithm in ("dds", "lds")
        for prune in (False, True)
    ]
    assert len(keys) == 200
    here = {}
    with sanitized(False):
        for algorithm, node_limit, prune in keys:
            here[algorithm, node_limit, prune] = _exact(_search(
                "compiled", problem, algorithm, node_limit,
                prune=prune, record_anytime=True,
            ))
            assert problem.profile.times == times  # simlint: skip=SIM003 - bit-equality is the claim
            assert problem.profile.free == free
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    fresh = subprocess.run(
        [sys.executable, "-c", _FRESH],
        input=pickle.dumps(keys), capture_output=True, env=env, check=True,
    )
    assert pickle.loads(fresh.stdout) == here


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
def test_make_policy_defaults_to_the_install_engine(monkeypatch):
    """The default is install-dependent: the compiled kernel when built
    (bit-identical, faster), the pure fast engine otherwise."""
    monkeypatch.delenv("REPRO_PURE_PYTHON", raising=False)
    policy = make_policy("dds", "lxf", node_limit=500)
    assert policy.searcher.engine == default_engine()
    assert policy.searcher.engine == ("compiled" if have_compiled() else "fast")


def test_make_policy_honours_pure_python_opt_out(monkeypatch):
    monkeypatch.setenv("REPRO_PURE_PYTHON", "1")
    assert default_engine() == "fast"
    assert make_policy("dds", "lxf", node_limit=500).searcher.engine == "fast"

