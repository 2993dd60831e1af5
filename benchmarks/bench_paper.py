"""The paper's ten artifacts (Tables 3-4, Figures 1-8), one benchmark.

``repro.experiments.figures.ARTIFACTS`` is the list; this module times
each entry once with pytest-benchmark, archives its rendering under
``benchmarks/results/<name>.txt`` and holds it to the shape the paper
reports — ``SHAPES`` maps an artifact to the assertions on its series,
``TRACE_SHAPES`` to the ones that re-derive their numbers from the traces
instead of the rendered figure (and so are not timed).  A new artifact is
a registry entry plus, if it has a shape worth pinning, a function here.
"""

from typing import Callable, Sequence

import numpy as np
import pytest

from repro.backfill import fcfs_backfill, lxf_backfill
from repro.core.scheduler import make_policy
from repro.experiments.config import current_scale
from repro.experiments.figures import ARTIFACTS, HIGH_LOAD, FigureSeries
from repro.experiments.runner import simulate
from repro.metrics.classes import avg_wait_grid
from repro.workloads.calibration import MONTHS
from repro.workloads.scaling import scale_to_load
from repro.workloads.stats import job_mix_table, runtime_table
from repro.workloads.synthetic import generate_month

from conftest import emit, run_once

DDS, LXF, FCFS = "DDS/lxf/dynB", "LXF-BF", "FCFS-BF"
E_MAX = "total excessive wait vs FCFS-BF max (h)"
SLOWDOWN = "avg bounded slowdown"


def _mostly_le(a: Sequence[float], b: Sequence[float]) -> bool:
    """``a[i] <= b[i]`` in at least 60% of the months."""
    return sum(1 for x, y in zip(a, b) if x <= y) >= len(a) * 0.6


def fig1(fig: FigureSeries) -> None:
    """Pure combinatorics — matches the paper digit for digit at any scale."""
    text = fig.render()
    # Figure 1(d) checks.
    assert "64" in text and "9,864,100" in text
    # The 4-job LDS/DDS orders open with the pure-heuristic path.
    assert "0-1-2-3-4" in text


def fig2(fig: FigureSeries) -> None:
    """The maximum wait grows with the fixed bound (approaching it in many
    months); a larger bound admits (weakly) larger max waits in aggregate."""
    max_wait = fig.panels["max wait (h)"]
    assert sum(max_wait["w=50h"]) <= sum(max_wait["w=300h"]) * 1.05


def fig3(fig: FigureSeries) -> None:
    """Original load: LXF-BF has the lower average slowdown, FCFS-BF the
    lower maximum wait, and DDS/lxf/dynB tracks the lower envelope."""
    slowdown, max_wait = fig.panels[SLOWDOWN], fig.panels["max wait (h)"]
    assert _mostly_le(slowdown[LXF], slowdown[FCFS])
    assert sum(max_wait[FCFS]) <= sum(max_wait[LXF]) * 1.1
    assert sum(max_wait[DDS]) <= sum(max_wait[LXF]) * 1.1


def fig4(fig: FigureSeries) -> None:
    """rho = 0.9: the Figure-3 ordering with larger gaps; DDS beats LXF-BF
    on excessive wait and lands nearer LXF-BF than FCFS-BF on slowdown."""
    e_max, slowdown = fig.panels[E_MAX], fig.panels[SLOWDOWN]
    # FCFS-BF: identically zero by construction.
    assert all(abs(v) < 1e-9 for v in e_max[FCFS])
    assert sum(e_max[DDS]) <= sum(e_max[LXF]) + 1e-9
    to_lxf = [abs(d - x) for d, x in zip(slowdown[DDS], slowdown[LXF])]
    to_fcfs = [abs(d - x) for d, x in zip(slowdown[DDS], slowdown[FCFS])]
    assert _mostly_le(to_lxf, to_fcfs)


def fig6(fig: FigureSeries) -> None:
    """Excess improves as L grows, at a slight cost in average wait that
    stays far below FCFS-BF's."""
    excess = fig.panels[E_MAX][DDS]
    # The largest budget never does worse than the smallest on excess.
    assert excess[-1] <= excess[0] + 1e-9
    avg_wait = fig.panels["avg wait (h)"]
    fcfs = avg_wait[FCFS][0]
    assert all(v <= fcfs * 1.2 for v in avg_wait[DDS])


def fig7(fig: FigureSeries) -> None:
    """The branching heuristic dominates the choice of search algorithm:
    lxf branching beats fcfs branching on slowdown in most months."""
    slowdown = fig.panels[SLOWDOWN]
    assert _mostly_le(slowdown[DDS], slowdown["DDS/fcfs/dynB"])


def fig8(fig: FigureSeries) -> None:
    """R* = R: qualitatively the Figure-4 ordering with smaller gaps."""
    assert all(abs(v) < 1e-9 for v in fig.panels[E_MAX][FCFS])
    slowdown = fig.panels[SLOWDOWN]
    assert _mostly_le(slowdown[LXF], slowdown[FCFS])


SHAPES: dict[str, Callable[[FigureSeries], None]] = {
    fn.__name__: fn for fn in (fig1, fig2, fig3, fig4, fig6, fig7, fig8)
}


@pytest.mark.parametrize("name", list(ARTIFACTS))
def test_artifact(benchmark, name):
    fig = run_once(benchmark, ARTIFACTS[name], None)
    emit(name, fig.render())
    if name in SHAPES:
        SHAPES[name](fig)


def table3_calibration_quality(exp) -> None:
    """Realized vs published mix for the two months the paper highlights
    (within sampling noise at the bench scale)."""
    for name in ("2003-07", "2004-01"):
        cal = MONTHS[name]
        table = job_mix_table(generate_month(name, seed=exp.seed, scale=exp.job_scale))
        assert abs(table.load - cal.load) < 0.03
        for realized, target in zip(table.jobs_frac, cal.jobs_frac):
            assert abs(realized - target) < 0.07, (name, realized, target)


def table4_anomalies_reproduced(exp) -> None:
    """January 2004's signature: many long one-node jobs, many wide-short
    jobs — the paper's hardest month must look hard in our traces too."""
    jan = runtime_table(generate_month("2004-01", seed=exp.seed, scale=exp.job_scale))
    cal = MONTHS["2004-01"]
    assert abs(jan.long_all - sum(cal.long_frac)) < 0.06
    assert abs(jan.long_frac[0] - cal.long_frac[0]) < 0.06
    assert abs(jan.short_frac[3] - cal.short_frac[3]) < 0.06


def fig5_short_wide_jobs(exp) -> None:
    """LXF-BF and DDS improve FCFS-BF's short-wide classes (N>32, T<=1h)."""
    workload = scale_to_load(
        generate_month("2003-07", seed=exp.seed, scale=exp.job_scale), HIGH_LOAD
    )

    def short_wide(policy):
        grid = avg_wait_grid(simulate(workload, policy).jobs)
        # Runtime classes 0-1 (T <= 1h) x node classes 3-4 (N > 32).
        cells = grid.values[0:2, 3:5]
        return np.nanmean(cells) if not np.all(np.isnan(cells)) else np.nan

    fcfs_sw = short_wide(fcfs_backfill())
    lxf_sw = short_wide(lxf_backfill())
    dds_sw = short_wide(make_policy("dds", "lxf", node_limit=exp.L(1000)))
    if not (np.isnan(fcfs_sw) or np.isnan(lxf_sw) or np.isnan(dds_sw)):
        assert lxf_sw <= fcfs_sw * 1.05
        assert dds_sw <= fcfs_sw * 1.05


TRACE_SHAPES = {
    "table3": table3_calibration_quality,
    "table4": table4_anomalies_reproduced,
    "fig5": fig5_short_wide_jobs,
}


@pytest.mark.parametrize("name", list(TRACE_SHAPES))
def test_trace_shape(name):
    TRACE_SHAPES[name](current_scale())
