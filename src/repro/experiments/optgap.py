"""Optimality-gap sweep: how close does budgeted search get to optimal?

The paper's engines are differential-tested to exhaustion (bit-identity,
sanitizers, fuzzing — ``docs/testing.md``), but none of that says how
*good* a node-limited search result is.  This module measures it: a
seeded grid of small decision points, each solved exactly by
:func:`repro.core.exact.solve_exact`, then searched by the two flagship
policies (DDS/lxf and LDS/fcfs) at a sweep of node budgets — reporting,
per (algorithm, budget), the fraction of instances where search attains
the provable optimum and the distribution of the gap where it does not.

``repro optgap`` writes the report to ``BENCH_optgap.json`` at the repo
root, trend-tracked like ``BENCH_search.json``: any future change to the
search order, the profile arithmetic, or the objective that silently
degrades schedule quality shows up as a falling ``frac_optimal`` /
rising gap against the committed file.  Header, tolerance block,
``--check`` and the write are
:class:`~repro.experiments.benchreport.BenchReport`'s; the
``report-smoke`` CI job re-runs ``--quick`` against the committed band.

The gap is two-level, like the objective: the headline number is the
level-1 gap (extra excessive-wait hours over optimal); the level-2 gap
(extra bounded slowdown) is reported only over instances whose level-1
value already ties the optimum, where it is the deciding criterion.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.branching import order_jobs
from repro.core.exact import solve_exact
from repro.core.objective import FixedBound, ObjectiveConfig, ScheduleScore
from repro.core.profile import AvailabilityProfile
from repro.core.search import DiscrepancySearch, SearchProblem
from repro.experiments.benchreport import BenchReport, Report
from repro.simulator.job import Job
from repro.util.rng import RngStream
from repro.util.timeunits import HOUR

SCHEMA = "repro-bench-optgap/v1"

#: The two flagship policy shapes (same pair as ``BENCH_search.json``).
POLICIES: tuple[tuple[str, str], ...] = (("dds", "lxf"), ("lds", "fcfs"))

#: Node budgets swept per policy, smallest to largest.  The visited leaf
#: set grows monotonically with the budget (same traversal, longer
#: prefix), so per-instance gaps are weakly decreasing along this axis.
FULL_BUDGETS: tuple[int, ...] = (10, 50, 250, 1000)
QUICK_BUDGETS: tuple[int, ...] = (10, 1000)

FULL_INSTANCES = 24
QUICK_INSTANCES = 8

#: Instance size window: large enough that small budgets truncate the
#: tree, small enough that the exact solver is cheap (n! leaves).
MIN_JOBS = 4
MAX_JOBS = 8
DEFAULT_SEED = 2005


def generate_instance(
    index: int,
    seed: int = DEFAULT_SEED,
    min_jobs: int = MIN_JOBS,
    max_jobs: int = MAX_JOBS,
) -> tuple[list[Job], AvailabilityProfile, float, float]:
    """One seeded small decision point: ``(jobs, profile, now, omega)``.

    Deterministic in ``(seed, index)`` via :class:`RngStream` (simlint
    SIM002: no global RNG).  All times are whole seconds.  The machine
    is mid-recovery at ``now``: a fraction of nodes free immediately and
    full capacity one draw later — the regime where ordering decisions
    actually change the objective.
    """
    rng = RngStream(seed, f"optgap/{index}")
    capacity = int(rng.choice([8, 16, 32]))
    now = 4.0 * HOUR
    n_jobs = int(rng.integers(min_jobs, max_jobs + 1))
    jobs: list[Job] = []
    for i in range(n_jobs):
        job = Job(
            job_id=i,
            submit_time=float(int(rng.integers(0, int(now) + 1))),
            nodes=int(rng.integers(1, capacity + 1)),
            runtime=float(int(rng.integers(600, 12 * 3600 + 1))),
        )
        job.mark_waiting()
        jobs.append(job)
    free_now = int(rng.integers(0, capacity))  # strictly below capacity
    recovery = now + float(int(rng.integers(1800, 6 * 3600 + 1)))
    profile = AvailabilityProfile.from_segments(
        capacity, [(now, free_now), (recovery, capacity)]
    )
    omega = float(int(rng.choice([900, 3600, 7200])))
    return jobs, profile, now, omega


def build_problems(
    index: int,
    seed: int = DEFAULT_SEED,
    min_jobs: int = MIN_JOBS,
    max_jobs: int = MAX_JOBS,
) -> dict[str, SearchProblem]:
    """The instance as one ``SearchProblem`` per branching heuristic.

    The exact optimum is heuristic-independent (every permutation of the
    same jobs is a leaf either way), but each policy searches the tree
    ordered by its own heuristic, exactly as it would in production.
    """
    jobs, profile, now, omega = generate_instance(index, seed, min_jobs, max_jobs)
    objective = ObjectiveConfig(bound=FixedBound(omega))
    return {
        heuristic: SearchProblem(
            jobs=tuple(order_jobs(jobs, heuristic, now)),
            profile=profile,
            now=now,
            omega=omega,
            objective=objective,
        )
        for heuristic in sorted({h for _, h in POLICIES})
    }


def _gap_fields(
    achieved: ScheduleScore, optimal: ScheduleScore
) -> tuple[bool, float, float | None]:
    """``(is_optimal, excess_gap_hours, slowdown_gap_if_level1_tied)``."""
    is_optimal = bool(achieved == optimal)
    excess_gap = achieved.total_excessive_wait - optimal.total_excessive_wait
    slowdown_gap: float | None = None
    # Raw == is the objective's own tie rule: ScheduleScore orders its
    # levels bitwise, so "level-1 tied" must use the same comparison.
    if achieved.total_excessive_wait == optimal.total_excessive_wait:  # simlint: skip=SIM003
        slowdown_gap = achieved.total_slowdown - optimal.total_slowdown
    return is_optimal, excess_gap / 3600.0, slowdown_gap


def run_optgap(
    quick: bool = False,
    n_instances: int | None = None,
    budgets: tuple[int, ...] | None = None,
    seed: int = DEFAULT_SEED,
    max_jobs: int = MAX_JOBS,
    progress: Callable[[str], None] | None = None,
) -> Report:
    """Sweep the grid: the gap report's body (also what the claims
    certificate reads its C12/C13 rows from)."""
    say = progress if progress is not None else (lambda _msg: None)
    n = n_instances if n_instances is not None else (
        QUICK_INSTANCES if quick else FULL_INSTANCES
    )
    if n < 1:
        raise ValueError(f"instances must be >= 1, got {n}")
    limits = budgets if budgets is not None else (
        QUICK_BUDGETS if quick else FULL_BUDGETS
    )
    limits = tuple(sorted(set(limits)))  # callers may pass scaled duplicates

    instances: list[dict[str, Any]] = []
    # (algorithm, heuristic, budget) -> list of per-instance gap triples
    cells: dict[tuple[str, str, int], list[tuple[bool, float, float | None]]] = {
        (a, h, L): [] for a, h in POLICIES for L in limits
    }
    for index in range(n):
        problems = build_problems(index, seed=seed, max_jobs=max_jobs)
        some = next(iter(problems.values()))
        exact = solve_exact(some, max_jobs=max_jobs)
        instances.append(
            {
                "index": index,
                "n_jobs": len(some.jobs),
                "capacity": some.profile.capacity,
                "optimal_excessive_wait_hours": (
                    exact.best_score.total_excessive_wait / 3600.0
                ),
                "optimal_total_slowdown": exact.best_score.total_slowdown,
                "exact_nodes_visited": exact.nodes_visited,
            }
        )
        for algorithm, heuristic in POLICIES:
            problem = problems[heuristic]
            for L in limits:
                result = DiscrepancySearch(
                    algorithm, node_limit=L, engine="fast"
                ).search(problem)
                assert not (result.best_score < exact.best_score), (
                    f"instance {index}: {algorithm} at L={L} beat the exact "
                    "optimum — the oracle is broken"
                )
                assert isinstance(result.best_score, ScheduleScore)
                cells[(algorithm, heuristic, L)].append(
                    _gap_fields(result.best_score, exact.best_score)
                )
        say(f"instance {index + 1}/{n} done (n_jobs={len(some.jobs)})")

    rows: list[dict[str, Any]] = []
    for (algorithm, heuristic, L), triples in sorted(cells.items()):
        n_opt = sum(1 for opt, _, _ in triples if opt)
        gaps = [g for _, g, _ in triples]
        tied = [s for _, _, s in triples if s is not None]
        rows.append(
            {
                "algorithm": algorithm,
                "heuristic": heuristic,
                "node_limit": L,
                "n_instances": len(triples),
                "n_optimal": n_opt,
                "frac_optimal": n_opt / len(triples),
                "mean_excess_gap_hours": sum(gaps) / len(gaps),
                "max_excess_gap_hours": max(gaps),
                "excess_gap_hours": gaps,
                # Level-2 gap, conditioned on a level-1 tie (where it is
                # the deciding criterion); null when no instance ties.
                "mean_slowdown_gap_when_tied": (
                    sum(tied) / len(tied) if tied else None
                ),
                "n_level1_tied": len(tied),
            }
        )
        say(
            f"{algorithm}/{heuristic} @ L={L}: {n_opt}/{len(triples)} optimal, "
            f"mean gap {sum(gaps) / len(gaps):.3f} h"
        )

    return {
        "seed": seed,
        "max_jobs": max_jobs,
        "budgets": list(limits),
        "n_instances": n,
        "instances": instances,
        "rows": rows,
    }


def tolerance(body: Report) -> dict[str, float]:
    """The band committed with a sweep, derived from its top-budget rows.

    The smoke check re-runs ``--quick`` (a subset of instances), so the
    floors are generous: a genuine regression craters ``frac_optimal`` to
    ~0, noise does not."""
    top = body["budgets"][-1]
    top_rows = [r for r in body["rows"] if r["node_limit"] == top]
    return {
        "node_limit": top,
        "min_frac_optimal": max(
            0.0, min(r["frac_optimal"] for r in top_rows) - 0.25
        ),
        "max_mean_excess_gap_hours": (
            max(r["mean_excess_gap_hours"] for r in top_rows) * 2.0 + 0.5
        ),
    }


def compare(fresh: Report, committed: Report, tol: dict[str, float]) -> list[str]:
    """How a fresh (usually ``--quick``) sweep falls outside the committed
    band, judged at the fresh run's largest budget the band covers."""
    failures: list[str] = []
    budgets = [L for L in fresh["budgets"] if L <= tol["node_limit"]]
    if not budgets:
        return [
            f"fresh run has no budget at or below tolerance node_limit="
            f"{tol['node_limit']} (budgets {fresh['budgets']})"
        ]
    probe = max(budgets)
    for row in fresh["rows"]:
        if row["node_limit"] != probe:
            continue
        who = f"{row['algorithm']}/{row['heuristic']} @ L={probe}"
        if row["frac_optimal"] < tol["min_frac_optimal"]:
            failures.append(
                f"{who}: frac_optimal {row['frac_optimal']:.2f} below "
                f"tolerance {tol['min_frac_optimal']:.2f}"
            )
        if row["mean_excess_gap_hours"] > tol["max_mean_excess_gap_hours"]:
            failures.append(
                f"{who}: mean excess gap {row['mean_excess_gap_hours']:.3f} h "
                f"above tolerance {tol['max_mean_excess_gap_hours']:.3f} h"
            )
    return failures


def _headline(report: Report) -> str:
    top = report["budgets"][-1]
    fracs = ", ".join(
        f"{r['algorithm']}/{r['heuristic']} {r['frac_optimal']:.0%}"
        for r in report["rows"]
        if r["node_limit"] == top
    )
    return f"optimal at L={top}: {fracs}"


REPORT = BenchReport(
    schema=SCHEMA,
    benchmark="optimality-gap-small-instances",
    measure=run_optgap,
    tolerance=tolerance,
    compare=compare,
    headline=_headline,
)
