"""Search hot-path benchmark: the ``BENCH_search.json`` perf trajectory.

The scheduler's cost is dominated by the per-decision discrepancy search
(the paper's §2.3 overhead measurement), so this module times exactly that
operation: one node-limited search over a fixed 30-job decision point on a
partially busy 128-node machine, for the paper's two flagship policies
(``DDS/lxf/dynB`` and ``LDS/fcfs/dynB``) at L ∈ {1K, 10K, 100K}.  The
report's headline block, ``paper_overhead``, is the paper's own figure
re-measured — "30-65 milliseconds to visit 1K-8K nodes in a tree of 30
jobs" — on the engine a policy defaults to here and on ``"fast"``; it is
the one place that number is timed.

Each configuration is timed for:

- both python search engines (the index-addressed ``"fast"`` hot path and
  the ``"reference"`` executable spec; see :mod:`repro.core.search`),
  asserted bit-identical — a perf number measured against a wrong result
  is worthless;
- a ``prune=True`` ablation of the fast engine: wall time at an equal
  node count, with the pruned ``best_score`` asserted not worse than the
  unpruned one (pruning spends the nodes it saves further into the tree,
  so the score may be better; ``docs/performance.md`` has the
  equal-budget quality numbers);
- the ``"compiled"`` engine when the optional C kernel is importable
  (``repro.core.ckernel.have_compiled``), asserted bit-identical to
  ``"fast"`` — reports record an honest ``compiled_available`` flag so a
  pure-python report is never mistaken for a compiled one;
- for ``DDS/lxf/dynB``, the same objective given as criteria
  (``paper_objective()`` through ``SearchProblem.evaluator``) on both
  python engines, asserted bit-identical: the committed number for the
  evaluator path, which no perfbench workload runs.

The report records nodes/sec and wall seconds per decision per row, plus
per-config speedup ratios: ``fast`` over ``reference`` (also on the
criteria form), ``prune`` over ``fast``, and ``compiled`` over
``reference`` (the ISSUE's ≥6x acceptance floor is stated against the
reference spec).  What a kernel win is worth end to end — simulator
loop, marshalling and all — is ``perfbench``'s question, not this
module's: ``batch_L1k`` against ``batch_purepy_L1k`` is that ratio on a
whole calibrated month.

``repro bench`` writes the report to ``BENCH_search.json`` at the repo
root through :class:`~repro.experiments.benchreport.BenchReport`, which
owns the header, the tolerance block, ``--check`` and the write; the
``report-smoke`` CI job re-measures it with ``--quick`` on every push.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable, Sequence

from repro.core.branching import order_jobs
from repro.core.ckernel import default_engine, have_compiled
from repro.core.criteria import (
    CriteriaEvaluator,
    Criterion,
    DecisionContext,
    paper_objective,
)
from repro.core.objective import DynamicBound, ObjectiveConfig
from repro.core.profile import AvailabilityProfile
from repro.core.search import (
    DiscrepancySearch,
    SearchProblem,
    SearchResult,
    resolve_runtimes,
)
from repro.experiments.benchreport import BenchReport, Report
from repro.simulator.job import Job
from repro.util.rng import RngStream
from repro.util.timeunits import HOUR

#: Report format version (bump on incompatible layout changes).
#: v2: per-row ``prune`` field, prune-ablation rows and the ``:variant``
#: speedup key families.
#: v3: honest ``compiled_available`` field, compiled-engine rows and the
#: ``:compiled`` speedup family (present only when the extension is
#: built), and the end-to-end ``e2e`` decisions/sec section (simulator
#: replay, not just the raw node loop) with its own tolerance band.
#: v4: one sequential search per decision — the multi-process engine's
#: rows, speedup family and worker/core header fields are gone; the prune
#: row asserts its score is not worse than the unpruned one.
#: v5: the ``e2e`` replay section and its band are gone (120 decisions in
#: 4-40 ms carried no claim; perfbench's ``batch_L1k`` /
#: ``batch_purepy_L1k`` measure whole months).
#: v6: per-row ``objective`` field, criteria rows (the evaluator path on
#: both python engines) and the banded ``:criteria`` speedup family.
#: v7: the ``paper_overhead`` headline block (§2.3's 1K/8K pair).
SCHEMA = "repro-bench-search/v7"

#: The two flagship policy shapes the paper benchmarks (§2.3, §3).
POLICIES: tuple[tuple[str, str], ...] = (("dds", "lxf"), ("lds", "fcfs"))
#: The one of them also timed with its objective given as criteria.
CRITERIA_POLICY: tuple[str, str] = POLICIES[0]

#: §2.3: "it takes 30-65 milliseconds to visit 1K-8K nodes in a tree of 30
#: jobs" (Java on a 2-GHz Pentium 4, 2005) — ``(L, the paper's ms)``.
PAPER_OVERHEAD: tuple[tuple[int, float], ...] = ((1_000, 30.0), (8_000, 65.0))

FULL_LIMITS: tuple[int, ...] = (1_000, 10_000, 100_000)
#: ``--quick`` keeps CI smoke runs in seconds, not minutes.
QUICK_LIMITS: tuple[int, ...] = (1_000, 10_000)


def build_problem(heuristic: str = "lxf", n_jobs: int = 30) -> SearchProblem:
    """A fixed, deterministic decision point: ``n_jobs`` waiting jobs
    ordered by ``heuristic`` on a partially busy 128-node machine.

    The paper's own overhead measurement (§2.3) uses a 30-job tree; the
    consideration order goes through the real branching heuristic, so lxf
    and fcfs benchmarks explore genuinely different trees.
    """
    rng = RngStream(7, "overhead")
    jobs = []
    for i in range(n_jobs):
        job = Job(
            job_id=i,
            submit_time=float(rng.uniform(0, 4 * HOUR)),
            nodes=int(rng.integers(1, 65)),
            runtime=float(rng.uniform(600, 12 * HOUR)),
        )
        job.mark_waiting()
        jobs.append(job)
    now = 4 * HOUR
    bound = DynamicBound()
    ordered = order_jobs(jobs, heuristic, now)
    profile = AvailabilityProfile.from_segments(
        128, [(4 * HOUR, 40), (6 * HOUR, 90), (9 * HOUR, 128)]
    )
    return SearchProblem(
        jobs=tuple(ordered),
        profile=profile,
        now=now,
        omega=bound.value(now, ordered),
        objective=ObjectiveConfig(bound=bound),
    )


def with_criteria(
    problem: SearchProblem,
    criteria: Sequence[Criterion],
    evaluator_type: type[CriteriaEvaluator] = CriteriaEvaluator,
) -> SearchProblem:
    """``problem`` scored by ``criteria`` through ``SearchProblem.evaluator``
    (with ``paper_objective()``: the same scores by the other route)."""
    context = DecisionContext(
        now=problem.now,
        omega=problem.omega,
        runtimes=resolve_runtimes(problem),
        floor=problem.objective.slowdown_floor,
    )
    return dataclasses.replace(problem, evaluator=evaluator_type(criteria, context))


def _fingerprint(result: SearchResult) -> tuple[Any, ...]:
    """The fields the ISSUE's bit-identity contract covers."""
    return (
        tuple(j.job_id for j in result.best_order),
        tuple(sorted(result.best_starts.items())),
        result.best_score,
        result.nodes_visited,
        result.leaves_evaluated,
    )


def time_search(
    problem: SearchProblem,
    algorithm: str,
    node_limit: int,
    engine: str,
    repeats: int = 3,
    prune: bool = False,
) -> tuple[SearchResult, float]:
    """Run the search ``repeats`` times; return (result, best wall seconds)."""
    searcher = DiscrepancySearch(
        algorithm, node_limit=node_limit, engine=engine, prune=prune
    )
    best = float("inf")
    result: SearchResult | None = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = searcher.search(problem)
        best = min(best, time.perf_counter() - t0)
    assert result is not None
    return result, best


def paper_overhead(repeats: int) -> dict[str, Any]:
    """The paper's §2.3 measurement on this implementation: one search by
    the first of :data:`POLICIES` of the 30-job point at L=1K and L=8K, on the
    engine a policy defaults to in this install and on ``"fast"`` (one row
    each where those are the same engine), beside the paper's figure."""
    algorithm, heuristic = POLICIES[0]
    problem = build_problem(heuristic)
    engines = dict.fromkeys((default_engine(), "fast"))
    rows = []
    for node_limit, paper_ms in PAPER_OVERHEAD:
        for engine in engines:
            result, seconds = time_search(problem, algorithm, node_limit, engine, repeats)
            rows.append({
                "node_limit": node_limit,
                "engine": engine,
                "nodes_visited": result.nodes_visited,
                "ms_per_decision": seconds * 1e3,
                "paper_ms": paper_ms,
            })
    return {
        "policy": f"{algorithm.upper()}/{heuristic}/dynB",
        "n_jobs": len(problem.jobs),
        "rows": rows,
    }


def run_bench(
    quick: bool = False,
    repeats: int = 3,
    progress: Callable[[str], None] | None = None,
    limits: tuple[int, ...] | None = None,
) -> Report:
    """Time every (policy, L, variant) combination: the report's body.

    ``limits`` overrides the budget sweep (tests use tiny budgets so
    every row family and every identity assert runs in milliseconds); by
    default ``quick`` picks between :data:`QUICK_LIMITS` and
    :data:`FULL_LIMITS`.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if limits is None:
        limits = QUICK_LIMITS if quick else FULL_LIMITS
    say = progress if progress is not None else (lambda _msg: None)
    compiled_available = have_compiled()
    configs: list[dict[str, Any]] = []
    speedups: dict[str, float] = {}
    for algorithm, heuristic in POLICIES:
        problem = build_problem(heuristic)
        policy_name = f"{algorithm.upper()}/{heuristic}/dynB"
        for node_limit in limits:

            def timed(
                engine: str,
                prune: bool = False,
                on: SearchProblem = problem,
                objective: str = "two-level",
            ) -> tuple[SearchResult, float]:
                """Time one configuration and record its row."""
                result, seconds = time_search(
                    on, algorithm, node_limit, engine, repeats=repeats, prune=prune
                )
                configs.append({
                    "policy": policy_name,
                    "algorithm": algorithm,
                    "heuristic": heuristic,
                    "bound": "dynB",
                    "node_limit": node_limit,
                    "engine": engine,
                    "prune": prune,
                    "objective": objective,
                    "nodes_visited": result.nodes_visited,
                    "leaves_evaluated": result.leaves_evaluated,
                    "seconds_per_decision": seconds,
                    "nodes_per_second": result.nodes_visited / seconds,
                })
                return result, seconds

            def python_engines(
                key: str, **form: Any
            ) -> tuple[tuple[SearchResult, float], tuple[SearchResult, float]]:
                """fast against reference on one objective form: two rows,
                bit-identity, and the speedup recorded under ``key``."""
                fast, reference = timed("fast", **form), timed("reference", **form)
                if _fingerprint(fast[0]) != _fingerprint(reference[0]):
                    raise AssertionError(
                        f"engines disagree on {key}: "
                        "fast and reference results must be bit-identical"
                    )
                speedups[key] = reference[1] / fast[1]
                say(
                    f"{key}: fast {fast[0].nodes_visited / fast[1]:,.0f} n/s, "
                    f"reference {reference[0].nodes_visited / reference[1]:,.0f} n/s "
                    f"({speedups[key]:.2f}x)"
                )
                return fast, reference

            key = f"{policy_name}@L={node_limit}"
            fast, reference = python_engines(key)

            # Branch-and-bound ablation: prune=True skips dominated
            # subtrees and spends the saved visits further into the tree,
            # so the row is wall time at an equal node count and the score
            # can only match or beat the unpruned one.
            prune_result, prune_seconds = timed("fast", prune=True)
            if fast[0].best_score < prune_result.best_score:
                raise AssertionError(
                    f"pruned search is worse than unpruned on {policy_name} "
                    f"at L={node_limit}: {prune_result.best_score} vs "
                    f"{fast[0].best_score}"
                )
            prune_key = f"{key}:prune"
            speedups[prune_key] = fast[1] / prune_seconds
            say(
                f"{prune_key}: {speedups[prune_key]:.2f}x over fast "
                f"({prune_result.nodes_visited:,} of "
                f"{fast[0].nodes_visited:,} nodes visited)"
            )

            # Compiled kernel: same bit-identity contract as the serial
            # engines.  Rows and the ":compiled" family exist only when
            # the extension is importable — the report header's
            # ``compiled_available`` says which kind this is.  The ratio
            # is over *reference* (the ISSUE's ≥6x acceptance floor),
            # unlike the over-fast ":prune" family.
            if compiled_available:
                comp_result, comp_seconds = timed("compiled")
                if _fingerprint(comp_result) != _fingerprint(fast[0]):
                    raise AssertionError(
                        f"compiled engine disagrees with fast on {policy_name} "
                        f"at L={node_limit}: results must be bit-identical"
                    )
                comp_key = f"{key}:compiled"
                speedups[comp_key] = reference[1] / comp_seconds
                say(
                    f"{comp_key}: "
                    f"{comp_result.nodes_visited / comp_seconds:,.0f} n/s "
                    f"({speedups[comp_key]:.2f}x over reference)"
                )

            # The evaluator path: the same search with the objective
            # given as criteria, which the kernel does not take.
            if (algorithm, heuristic) == CRITERIA_POLICY:
                python_engines(
                    f"{key}:criteria",
                    on=with_criteria(problem, paper_objective()),
                    objective="criteria",
                )

    return {
        "repeats": repeats,
        "paper_overhead": paper_overhead(repeats),
        "configs": configs,
        "speedups": speedups,
    }


#: The ``--check`` band a fresh smoke run is judged against.  The
#: fast/reference *ratio* is machine-independent (both engines share the
#: interpreter and the cache behaviour), so it gets the tight band; raw
#: nodes/sec moves with the builder's hardware and load, so its floor
#: only catches collapses, not drift.
TOLERANCE: dict[str, float] = {
    # fresh fast/reference speedup >= committed speedup x this
    "min_speedup_frac": 0.65,
    # fresh fast-engine nodes/sec >= committed nodes/sec x this
    "min_nodes_per_second_frac": 0.40,
    # fresh compiled/reference speedup >= committed speedup x this
    # (compared only when both reports were measured with the kernel)
    "min_compiled_speedup_frac": 0.50,
}


def compare(fresh: Report, committed: Report, tol: dict[str, float]) -> list[str]:
    """How a fresh (usually ``--quick``) run falls outside the committed
    band.  Only configurations present in both reports are compared, so a
    quick run checks cleanly against a full baseline."""
    failures: list[str] = []
    # Compiled rows are compared only when both reports actually measured
    # the kernel; a pure-python smoke against a compiled baseline (or vice
    # versa) skips the family rather than failing spuriously.
    both_compiled = fresh["compiled_available"] and committed["compiled_available"]
    for key, fresh_ratio in fresh["speedups"].items():
        if key.endswith(":compiled"):
            if not both_compiled:
                continue
            what, frac = "compiled/reference", tol["min_compiled_speedup_frac"]
        elif key.endswith(":criteria"):
            what, frac = "criteria fast/reference", tol["min_speedup_frac"]
        elif ":" in key:  # the prune ablation is reported, not gated
            continue
        else:
            what, frac = "fast/reference", tol["min_speedup_frac"]
        committed_ratio = committed["speedups"].get(key)
        if committed_ratio is None:
            continue
        if fresh_ratio < committed_ratio * frac:
            failures.append(
                f"{key}: {what} speedup {fresh_ratio:.2f}x below "
                f"{frac:.0%} of committed {committed_ratio:.2f}x"
            )
    min_nps = tol["min_nodes_per_second_frac"]

    def rowkey(row: dict[str, Any]) -> tuple[Any, ...]:
        return (
            row["policy"],
            row["node_limit"],
            row["engine"],
            row["prune"],
            row["objective"],
        )

    committed_rows = {rowkey(r): r for r in committed["configs"]}
    for row in fresh["configs"]:
        if row["engine"] != "fast" or row["prune"]:
            continue
        base = committed_rows.get(rowkey(row))
        if base is None:
            continue
        if row["nodes_per_second"] < base["nodes_per_second"] * min_nps:
            failures.append(
                f"{row['policy']}@L={row['node_limit']}: fast engine "
                f"{row['nodes_per_second']:,.0f} nodes/s below {min_nps:.0%} "
                f"of committed {base['nodes_per_second']:,.0f}"
            )
    return failures


def _headline(report: Report) -> str:
    # The fast/reference keys are the ones without a ":variant" suffix.
    worst = min(v for k, v in report["speedups"].items() if ":" not in k)
    by_engine: dict[str, list[str]] = {}
    for row in report["paper_overhead"]["rows"]:
        by_engine.setdefault(row["engine"], []).append(f"{row['ms_per_decision']:.2f}")
    overhead = ", ".join(f"{'/'.join(ms)} ms on {engine}" for engine, ms in by_engine.items())
    paper = "/".join(f"{ms:.0f}" for _, ms in PAPER_OVERHEAD)
    return (
        f"worst fast/reference speedup {worst:.2f}x; "
        f"1K/8K nodes in a tree of 30 jobs: {overhead} (paper: {paper} ms)"
    )


REPORT = BenchReport(
    schema=SCHEMA,
    benchmark="search-hotpath-30-jobs",
    measure=run_bench,
    tolerance=lambda _body: TOLERANCE,
    compare=compare,
    headline=_headline,
)
