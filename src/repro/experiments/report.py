"""One-shot full reproduction: every table, figure and claim to disk.

``reproduce_all(out_dir)`` regenerates Tables 3-4, Figures 1-8 and the
claims certificate at the active experiment scale, writes each rendering
under ``out_dir`` and a combined ``REPORT.md`` index.  The CLI exposes it
as ``python -m repro reproduce --out DIR``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Sequence

from repro.experiments import parallel
from repro.experiments.claims import build_context, evaluate_claims, render_claims
from repro.experiments.config import ExperimentScale, current_scale
from repro.experiments.figures import ARTIFACTS
from repro.util.atomio import atomic_write_text


def reproduce_all(
    out_dir: str | Path,
    exp: ExperimentScale | None = None,
    only: Sequence[str] | None = None,
    with_claims: bool = True,
    progress: Callable[[str], None] | None = None,
) -> Path:
    """Run the full reproduction and write a report; returns its path.

    ``only`` restricts to a subset of artifact names (e.g. ``["fig3"]``);
    ``progress`` receives one line per completed artifact.
    """
    exp = exp or current_scale()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    say = progress or (lambda line: None)
    stats = parallel.reset_session_stats()

    index_lines = [
        "# Reproduction report",
        "",
        f"Scale: job_scale={exp.job_scale:g}, "
        f"node_limit_factor={exp.node_limit_factor:g}, seed={exp.seed}.",
        "",
    ]
    selected = [
        (name, fn)
        for name, fn in ARTIFACTS.items()
        if only is None or name in set(only)
    ]
    if only is not None:
        unknown = set(only) - set(ARTIFACTS)
        if unknown:
            raise ValueError(
                f"unknown artifacts {sorted(unknown)}; "
                f"choose from {list(ARTIFACTS)}"
            )

    for name, fn in selected:
        started = time.perf_counter()
        figure = fn(exp)
        text = figure.render()
        # Atomic so an interrupted reproduce never leaves a torn artifact
        # that a later --only rerun would mistake for a finished one.
        atomic_write_text(out / f"{name}.txt", text + "\n")
        elapsed = time.perf_counter() - started
        say(f"{name}: {figure.title} ({elapsed:.1f} s)")
        index_lines += [f"## {figure.figure}: {figure.title}", "", "```"]
        index_lines += [text, "```", ""]

    if with_claims:
        started = time.perf_counter()
        context = build_context(exp)
        results = evaluate_claims(context)
        text = render_claims(results)
        atomic_write_text(out / "claims.txt", text + "\n")
        say(f"claims: {sum(r.passed for r in results)}/{len(results)} "
            f"({time.perf_counter() - started:.1f} s)")
        index_lines += ["## Reproduction certificate", "", "```", text, "```", ""]

    if stats.runs:
        say(f"execution: {stats.summary()}")
        index_lines += ["## Execution", "", stats.summary(), ""]

    report = out / "REPORT.md"
    atomic_write_text(report, "\n".join(index_lines))
    return report
