"""One function per table/figure of the paper's evaluation.

Each function runs the simulations it needs at the active
:class:`~repro.experiments.config.ExperimentScale` and returns a
:class:`FigureSeries` whose ``render()`` prints the same rows/series the
paper plots.  :data:`ARTIFACTS` at the bottom is the one list of them:
``repro figure`` / ``tables`` / ``reproduce`` and
``benchmarks/bench_paper.py`` (which times each and asserts its shape)
all read it; EXPERIMENTS.md records paper-vs-measured shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Mapping, Sequence

from repro.core.search_tree import (
    dds_order,
    lds_order,
    num_nodes,
    num_paths,
)
from repro.experiments.config import ExperimentScale, current_scale
from repro.experiments.parallel import PolicySpec, RunSpec, WorkloadSpec, run_all
from repro.experiments.runner import PolicyRun
from repro.metrics.classes import avg_wait_grid
from repro.metrics.excessive import reference_thresholds
from repro.metrics.report import format_grid, format_series
from repro.workloads.calibration import MONTH_ORDER, MONTHS
from repro.workloads.scaling import scale_to_load
from repro.workloads.stats import (
    format_job_mix,
    format_runtime_table,
    job_mix_table,
    runtime_table,
)
from repro.workloads.synthetic import generate_month
from repro.workloads.trace import Workload

HIGH_LOAD = 0.9


@dataclass
class FigureSeries:
    """Printable reproduction of one figure.

    ``panels`` maps a panel title (e.g. ``"max wait (h)"``) to its series:
    ``{series name: [value per row label]}``.
    """

    figure: str
    title: str
    row_labels: list[str]
    panels: dict[str, dict[str, list[float]]]
    notes: list[str] = field(default_factory=list)
    text: str | None = None  # pre-rendered body (used by table/tree figures)

    def render(self) -> str:
        parts = [f"== {self.figure}: {self.title} =="]
        parts.extend(f"   {note}" for note in self.notes)
        if self.text is not None:
            parts.append(self.text)
        for panel, series in self.panels.items():
            parts.append("")
            parts.append(
                format_series(panel, self.row_labels, series, fmt="{:.2f}")
            )
        return "\n".join(parts)


# ----------------------------------------------------------------------
# Workload caches: generating a month is deterministic in (name, seed,
# scale), so share them across figures.
# ----------------------------------------------------------------------
@lru_cache(maxsize=64)
def _month(name: str, seed: int, scale: float) -> Workload:
    return generate_month(name, seed=seed, scale=scale)


@lru_cache(maxsize=64)
def _month_at_load(name: str, seed: int, scale: float, load: float) -> Workload:
    return scale_to_load(_month(name, seed, scale), load)


def _workloads(
    exp: ExperimentScale,
    load: float | None = None,
    months: Sequence[str] | None = None,
) -> list[Workload]:
    names = list(months) if months is not None else list(MONTH_ORDER)
    if load is None:
        return [_month(m, exp.seed, exp.job_scale) for m in names]
    return [_month_at_load(m, exp.seed, exp.job_scale, load) for m in names]


def _labels(workloads: Sequence[Workload]) -> list[str]:
    return [MONTHS[w.name].label for w in workloads]


# ----------------------------------------------------------------------
# Run-spec helpers: every simulation below goes through the parallel
# executor (repro.experiments.parallel), so figures transparently honour
# the session's --workers / run-cache configuration.
# ----------------------------------------------------------------------
def _specs(
    exp: ExperimentScale,
    load: float | None = None,
    months: Sequence[str] | None = None,
    estimates: str | None = None,
) -> list[WorkloadSpec]:
    names = list(months) if months is not None else list(MONTH_ORDER)
    return [
        WorkloadSpec(
            month=m,
            seed=exp.seed,
            scale=exp.job_scale,
            load=load,
            estimates=estimates,
            estimates_seed=exp.seed if estimates is not None else 0,
        )
        for m in names
    ]


def _spec_labels(specs: Sequence[WorkloadSpec]) -> list[str]:
    return [MONTHS[s.month].label for s in specs]


def _search_spec(
    algorithm: str,
    heuristic: str,
    node_limit: int,
    bound_hours: float | None = None,
    use_actual: bool = True,
) -> PolicySpec:
    bound = "dynB" if bound_hours is None else f"fixB{bound_hours:g}h"
    return PolicySpec(
        f"{algorithm}/{heuristic}/{bound}",
        node_limit=node_limit,
        use_actual_runtime=use_actual,
    )


def _backfill_spec(spec: str, use_actual: bool = True) -> PolicySpec:
    # node_limit is irrelevant for backfill policies; pin it to 0 so one
    # cached run serves every grid regardless of the search budget L.
    return PolicySpec(spec, node_limit=0, use_actual_runtime=use_actual)


# ----------------------------------------------------------------------
# Figure 1: the search tree and LDS/DDS iteration orders
# ----------------------------------------------------------------------
def fig1_tree(
    exp: ExperimentScale | None = None,
    n_examples: Sequence[int] = (4, 8, 10, 12, 15),
) -> FigureSeries:
    """Tree sizes (Fig 1d) and the 4-job LDS/DDS visit orders (Fig 1a-c,e,f).

    Pure combinatorics: ``exp`` is ignored, and accepted only so every
    entry of :data:`ARTIFACTS` is called the same way."""
    lines = ["Tree size as number of waiting jobs (Figure 1d):"]
    lines.append(f"{'# jobs':>8}{'# paths':>18}{'# nodes':>18}")
    for n in n_examples:
        lines.append(f"{n:>8}{num_paths(n):>18,}{num_nodes(n):>18,}")

    items = (1, 2, 3, 4)
    lds = ["-".join(map(str, (0, *p))) for p in lds_order(items)]
    dds = ["-".join(map(str, (0, *p))) for p in dds_order(items)]
    lines.append("")
    lines.append("LDS visit order over 4 jobs (iterations 0,1,2,... of Fig 1a-c):")
    lines.append("  " + "  ".join(lds))
    lines.append("DDS visit order over 4 jobs (iterations 0,1,2,... of Fig 1a,e,f):")
    lines.append("  " + "  ".join(dds))
    return FigureSeries(
        figure="Figure 1",
        title="Search tree and discrepancy-search orders",
        row_labels=[],
        panels={},
        text="\n".join(lines),
    )


# ----------------------------------------------------------------------
# Tables 3 and 4: workload characteristics, recomputed from the traces
# ----------------------------------------------------------------------
def table3_job_mix(exp: ExperimentScale | None = None) -> FigureSeries:
    exp = exp or current_scale()
    workloads = _workloads(exp)
    tables = [job_mix_table(w) for w in workloads]
    body = format_job_mix(tables)
    notes = [
        f"job scale {exp.job_scale:g}, seed {exp.seed}; compare against the",
        "published Table 3 values in repro.workloads.calibration.MONTHS",
    ]
    return FigureSeries(
        figure="Table 3",
        title="Monthly job mix (recomputed from synthetic traces)",
        row_labels=[],
        panels={},
        notes=notes,
        text=body,
    )


def table4_runtimes(exp: ExperimentScale | None = None) -> FigureSeries:
    exp = exp or current_scale()
    workloads = _workloads(exp)
    tables = [runtime_table(w) for w in workloads]
    body = format_runtime_table(tables)
    return FigureSeries(
        figure="Table 4",
        title="Distribution of actual job runtime (recomputed)",
        row_labels=[],
        panels={},
        text=body,
    )


# ----------------------------------------------------------------------
# Figure 2: sensitivity of DDS/lxf to the fixed target wait bound
# ----------------------------------------------------------------------
def fig2_fixed_bound_sensitivity(
    exp: ExperimentScale | None = None,
    omegas_hours: Sequence[float] = (50.0, 100.0, 300.0),
) -> FigureSeries:
    exp = exp or current_scale()
    specs = _specs(exp)
    L = exp.L(1000)
    grid = [
        RunSpec(w, _search_spec("dds", "lxf", L, bound_hours=omega_h))
        for omega_h in omegas_hours
        for w in specs
    ]
    runs = run_all(grid)
    panels: dict[str, dict[str, list[float]]] = {
        "max wait (h)": {},
        "avg bounded slowdown": {},
    }
    for i, omega_h in enumerate(omegas_hours):
        key = f"w={omega_h:g}h"
        chunk = runs[i * len(specs) : (i + 1) * len(specs)]
        panels["max wait (h)"][key] = [r.metrics.max_wait_hours for r in chunk]
        panels["avg bounded slowdown"][key] = [
            r.metrics.avg_bounded_slowdown for r in chunk
        ]
    return FigureSeries(
        figure="Figure 2",
        title="DDS/lxf sensitivity to fixed target bound (original load)",
        row_labels=_spec_labels(specs),
        panels=panels,
        notes=[f"R*=T, L={L} (paper: 1K at full scale)"],
    )


# ----------------------------------------------------------------------
# Shared three-policy comparison used by Figures 3, 4 and 8
# ----------------------------------------------------------------------
def _three_policy_runs(
    specs: Sequence[WorkloadSpec],
    L_for: Mapping[str, int],
    use_actual: bool = True,
) -> dict[str, list[PolicyRun]]:
    """Run FCFS-BF, LXF-BF and DDS/lxf/dynB over the workloads."""
    grid = []
    for w in specs:
        grid.append(RunSpec(w, _backfill_spec("fcfs-bf", use_actual), label="FCFS-BF"))
        grid.append(RunSpec(w, _backfill_spec("lxf-bf", use_actual), label="LXF-BF"))
        grid.append(
            RunSpec(
                w,
                _search_spec("dds", "lxf", L_for[w.month], use_actual=use_actual),
                label="DDS/lxf/dynB",
            )
        )
    results = run_all(grid)
    runs: dict[str, list[PolicyRun]] = {"FCFS-BF": [], "LXF-BF": [], "DDS/lxf/dynB": []}
    for spec, run in zip(grid, results):
        runs[spec.label].append(run)
    return runs


def _comparison_panels(
    runs: dict[str, list[PolicyRun]],
    with_excessive: bool = False,
    with_queue: bool = False,
) -> dict[str, dict[str, list[float]]]:
    names = list(runs)
    panels: dict[str, dict[str, list[float]]] = {
        "avg wait (h)": {n: [r.metrics.avg_wait_hours for r in runs[n]] for n in names},
        "max wait (h)": {n: [r.metrics.max_wait_hours for r in runs[n]] for n in names},
        "avg bounded slowdown": {
            n: [r.metrics.avg_bounded_slowdown for r in runs[n]] for n in names
        },
    }
    if with_queue:
        panels["avg queue length"] = {
            n: [r.avg_queue_length for r in runs[n]] for n in names
        }
    if with_excessive:
        reference = runs["FCFS-BF"]
        thresholds = [reference_thresholds(r.jobs) for r in reference]
        for panel, t_idx in (
            ("total excessive wait vs FCFS-BF 98th pct (h)", 1),
            ("total excessive wait vs FCFS-BF max (h)", 0),
        ):
            panels[panel] = {
                n: [
                    runs[n][i].excessive(thresholds[i][t_idx]).total_hours
                    for i in range(len(runs[n]))
                ]
                for n in names
            }
        panels["# jobs with excessive wait vs FCFS-BF max"] = {
            n: [
                float(runs[n][i].excessive(thresholds[i][0]).count)
                for i in range(len(runs[n]))
            ]
            for n in names
        }
        panels["avg excessive wait vs FCFS-BF max (h)"] = {
            n: [
                runs[n][i].excessive(thresholds[i][0]).avg_hours
                for i in range(len(runs[n]))
            ]
            for n in names
        }
    return panels


def fig3_original_load(exp: ExperimentScale | None = None) -> FigureSeries:
    exp = exp or current_scale()
    specs = _specs(exp)
    L = exp.L(1000)
    runs = _three_policy_runs(specs, {w.month: L for w in specs})
    return FigureSeries(
        figure="Figure 3",
        title="Policy comparison under original load",
        row_labels=_spec_labels(specs),
        panels=_comparison_panels(runs),
        notes=[f"R*=T, L={L} (paper: 1K at full scale)"],
    )


def fig4_high_load(exp: ExperimentScale | None = None) -> FigureSeries:
    exp = exp or current_scale()
    specs = _specs(exp, load=HIGH_LOAD)
    # Paper: L = 1K everywhere except January 2004 at 8K.
    L_for = {
        w.month: exp.L(8000) if w.month == "2004-01" else exp.L(1000)
        for w in specs
    }
    runs = _three_policy_runs(specs, L_for)
    return FigureSeries(
        figure="Figure 4",
        title=f"Policy comparison under high load (rho={HIGH_LOAD})",
        row_labels=_spec_labels(specs),
        panels=_comparison_panels(runs, with_excessive=True, with_queue=True),
        notes=[
            f"R*=T; L={exp.L(1000)} except 1/04 at {exp.L(8000)} "
            "(paper: 1K / 8K at full scale)"
        ],
    )


# ----------------------------------------------------------------------
# Figure 5: per-job-class average wait, July 2003, high load
# ----------------------------------------------------------------------
def fig5_job_classes(
    exp: ExperimentScale | None = None, month: str = "2003-07"
) -> FigureSeries:
    exp = exp or current_scale()
    spec = WorkloadSpec(month, seed=exp.seed, scale=exp.job_scale, load=HIGH_LOAD)
    L = exp.L(1000)
    results = run_all(
        [
            RunSpec(spec, _backfill_spec("fcfs-bf"), label="FCFS-BF"),
            RunSpec(spec, _backfill_spec("lxf-bf"), label="LXF-BF"),
            RunSpec(spec, _search_spec("dds", "lxf", L), label="DDS/lxf/dynB"),
        ]
    )
    runs = dict(zip(("FCFS-BF", "LXF-BF", "DDS/lxf/dynB"), results))
    blocks = []
    for name, run in runs.items():
        grid = avg_wait_grid(run.jobs)
        blocks.append(format_grid(f"{name}: avg wait (h) per N x T class", grid))
    return FigureSeries(
        figure="Figure 5",
        title=f"Average wait per job class, {MONTHS[month].label}, rho={HIGH_LOAD}",
        row_labels=[],
        panels={},
        notes=[f"R*=T, L={L}"],
        text="\n\n".join(blocks),
    )


# ----------------------------------------------------------------------
# Figure 6: impact of the node limit L, January 2004, high load
# ----------------------------------------------------------------------
def fig6_node_limit(
    exp: ExperimentScale | None = None,
    month: str = "2004-01",
    paper_limits: Sequence[int] = (1000, 2000, 4000, 8000, 10000, 100000),
) -> FigureSeries:
    exp = exp or current_scale()
    spec = WorkloadSpec(month, seed=exp.seed, scale=exp.job_scale, load=HIGH_LOAD)
    limits = [exp.L(l) for l in paper_limits]
    row_labels = [f"L={l}" for l in limits]
    results = run_all(
        [
            RunSpec(spec, _backfill_spec("fcfs-bf"), label="FCFS-BF"),
            RunSpec(spec, _backfill_spec("lxf-bf"), label="LXF-BF"),
        ]
        + [
            RunSpec(spec, _search_spec("dds", "lxf", l), label=f"L={l}")
            for l in limits
        ]
    )
    fcfs_run, lxf_run, dds_runs = results[0], results[1], results[2:]
    t_max, _ = reference_thresholds(fcfs_run.jobs)

    def row(value_fn: Callable[[PolicyRun], float]) -> dict[str, list[float]]:
        return {
            "FCFS-BF": [value_fn(fcfs_run)] * len(limits),
            "LXF-BF": [value_fn(lxf_run)] * len(limits),
            "DDS/lxf/dynB": [value_fn(r) for r in dds_runs],
        }

    panels = {
        "total excessive wait vs FCFS-BF max (h)": row(
            lambda r: r.excessive(t_max).total_hours
        ),
        "max wait (h)": row(lambda r: r.metrics.max_wait_hours),
        "avg wait (h)": row(lambda r: r.metrics.avg_wait_hours),
        "avg bounded slowdown": row(lambda r: r.metrics.avg_bounded_slowdown),
    }
    return FigureSeries(
        figure="Figure 6",
        title=f"Impact of node limit L, {MONTHS[month].label}, rho={HIGH_LOAD}",
        row_labels=row_labels,
        panels=panels,
        notes=[f"paper limits {list(paper_limits)} scaled to {limits}"],
    )


# ----------------------------------------------------------------------
# Figure 7: search algorithms and branching heuristics
# ----------------------------------------------------------------------
def fig7_algorithms(exp: ExperimentScale | None = None) -> FigureSeries:
    exp = exp or current_scale()
    specs = _specs(exp, load=HIGH_LOAD)
    L = exp.L(2000)
    policies = {
        "DDS/fcfs/dynB": _search_spec("dds", "fcfs", L),
        "DDS/lxf/dynB": _search_spec("dds", "lxf", L),
        "LDS/lxf/dynB": _search_spec("lds", "lxf", L),
    }
    grid = [RunSpec(w, _backfill_spec("fcfs-bf"), label="FCFS-BF") for w in specs]
    grid += [
        RunSpec(w, policy, label=key)
        for key, policy in policies.items()
        for w in specs
    ]
    results = run_all(grid)
    thresholds = [
        reference_thresholds(r.jobs)[0] for r in results[: len(specs)]
    ]
    runs: dict[str, list[PolicyRun]] = {}
    for i, key in enumerate(policies):
        lo = (i + 1) * len(specs)
        runs[key] = results[lo : lo + len(specs)]
    panels = {
        "avg bounded slowdown": {
            k: [r.metrics.avg_bounded_slowdown for r in v] for k, v in runs.items()
        },
        "total excessive wait vs FCFS-BF max (h)": {
            k: [v[i].excessive(thresholds[i]).total_hours for i in range(len(v))]
            for k, v in runs.items()
        },
    }
    return FigureSeries(
        figure="Figure 7",
        title=f"Search algorithms and branching heuristics (rho={HIGH_LOAD})",
        row_labels=_spec_labels(specs),
        panels=panels,
        notes=[f"R*=T, L={L} (paper: 2K at full scale)"],
    )


# ----------------------------------------------------------------------
# Figure 8: planning with inaccurate requested runtimes (R* = R)
# ----------------------------------------------------------------------
def fig8_requested_runtimes(exp: ExperimentScale | None = None) -> FigureSeries:
    exp = exp or current_scale()
    specs = _specs(exp, load=HIGH_LOAD, estimates="menu")
    L = exp.L(4000)
    runs = _three_policy_runs(
        specs, {w.month: L for w in specs}, use_actual=False
    )
    panels = _comparison_panels(runs, with_excessive=True)
    # The paper's Fig 8 shows four panels; drop the two count/avg extras.
    panels.pop("# jobs with excessive wait vs FCFS-BF max", None)
    panels.pop("avg excessive wait vs FCFS-BF max (h)", None)
    panels.pop("total excessive wait vs FCFS-BF 98th pct (h)", None)
    return FigureSeries(
        figure="Figure 8",
        title=f"Inaccurate requested runtimes (R*=R, rho={HIGH_LOAD})",
        row_labels=_spec_labels(specs),
        panels=panels,
        notes=[f"menu estimate model, L={L} (paper: 4K at full scale)"],
    )


#: The paper's ten reproducible artifacts in report order, each callable
#: as ``fn(exp)`` (``None`` = the active scale).
ARTIFACTS: dict[str, Callable[[ExperimentScale | None], FigureSeries]] = {
    "table3": table3_job_mix,
    "table4": table4_runtimes,
    "fig1": fig1_tree,
    "fig2": fig2_fixed_bound_sensitivity,
    "fig3": fig3_original_load,
    "fig4": fig4_high_load,
    "fig5": fig5_job_classes,
    "fig6": fig6_node_limit,
    "fig7": fig7_algorithms,
    "fig8": fig8_requested_runtimes,
}
