"""Experiment harness: month x policy matrices and per-figure reproductions.

- :mod:`repro.experiments.runner` — run one policy on one workload and
  collect every measure the paper reports; run whole matrices.
- :mod:`repro.experiments.parallel` — fan a grid of picklable run specs
  across a process pool with per-run error capture and a serial fallback.
- :mod:`repro.experiments.cache` — content-addressed on-disk cache that
  lets re-runs skip already-computed grid cells.
- :mod:`repro.experiments.config` — bench-scale vs. paper-scale settings
  (the ``REPRO_FULL_SCALE=1`` switch).
- :mod:`repro.experiments.figures` — one function per table/figure of the
  evaluation, returning printable series, and ``ARTIFACTS``, the one list
  of the ten (see ``benchmarks/bench_paper.py``).
- :mod:`repro.experiments.benchreport` — the one report type behind the
  committed ``BENCH_search.json`` (:mod:`~repro.experiments.bench`) and
  ``BENCH_optgap.json`` (:mod:`~repro.experiments.optgap`).
"""

from repro.experiments.runner import PolicyRun, run_matrix, simulate
from repro.experiments.cache import RunCache
from repro.experiments.config import ExperimentScale, current_scale
from repro.experiments.parallel import (
    GridOutcome,
    PolicySpec,
    RunError,
    RunSpec,
    WorkloadSpec,
    configure,
    run_all,
    run_grid,
    session_stats,
)
from repro.experiments.figures import (
    FigureSeries,
    fig1_tree,
    fig2_fixed_bound_sensitivity,
    fig3_original_load,
    fig4_high_load,
    fig5_job_classes,
    fig6_node_limit,
    fig7_algorithms,
    fig8_requested_runtimes,
    table3_job_mix,
    table4_runtimes,
)

__all__ = [
    "PolicyRun",
    "simulate",
    "run_matrix",
    "ExperimentScale",
    "current_scale",
    "FigureSeries",
    "fig1_tree",
    "fig2_fixed_bound_sensitivity",
    "fig3_original_load",
    "fig4_high_load",
    "fig5_job_classes",
    "fig6_node_limit",
    "fig7_algorithms",
    "fig8_requested_runtimes",
    "table3_job_mix",
    "table4_runtimes",
]
