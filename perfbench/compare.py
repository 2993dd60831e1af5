"""Compare two result sets of ``perfbench suite`` against the bounds.

``python3 -m perfbench compare A.json B.json`` prints, for every workload
and end-to-end metric, both medians with their quartiles, how much worse B
is than A, and the bound ``BENCHMARK.json`` fixes for that metric.  A row
is

- ``REGRESSED`` when B's median is worse than A's by more than the bound;
- ``unresolved`` when it is not, but either side's own spread (third minus
  first quartile, over the median) is wider than the bound, so the runs
  could not have shown a regression of that size — unless every run of B
  reads better than every run of A;
- ``ok`` otherwise.

The exit code is 1 when a row regressed or B failed more operations than
A, and 2 when the two sets were not made the same way (run length, seeds,
workloads), because medians over different inputs do not compare.
``compare A.json A.json`` is the steadiness report: the spread columns are
what the acceptance rule bounds.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

from perfbench.build import ROOT


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _values(results: dict[str, Any], workload: str, metric: str) -> list[float]:
    return [
        run["metrics"][metric]["value"]
        for run in results["runs"]
        if run["workload"] == workload and not run["trace"]
    ]


def _failed(results: dict[str, Any], workload: str) -> int:
    return sum(r["failed"] for r in results["runs"] if r["workload"] == workload)


def compare(
    a: dict[str, Any], b: dict[str, Any], benchmark: dict[str, Any]
) -> tuple[list[dict[str, Any]], list[str]]:
    """One row per (workload, end-to-end metric), and the reasons B is not
    acceptable (none: it is)."""
    rows = []
    reasons = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            va = _values(a, workload, metric["name"])
            vb = _values(b, workload, metric["name"])
            if not va or not vb:
                continue
            qa, qb = _quartiles(va), _quartiles(vb)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (qb[1] - qa[1]) / qa[1]
            spread_a = (qa[2] - qa[0]) / qa[1]
            spread_b = (qb[2] - qb[0]) / qb[1]
            # Every run of B reads better than every run of A.
            all_better = max(sign * v for v in vb) < min(sign * v for v in va)
            if worse > metric["bound"]:
                verdict = "REGRESSED"
                reasons.append(
                    f"{workload} {metric['name']}: {worse:+.1%} worse, "
                    f"bound {metric['bound']:.0%}"
                )
            elif max(spread_a, spread_b) > metric["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "a": qa,
                    "b": qb,
                    "spread_a": spread_a,
                    "spread_b": spread_b,
                    "worse": worse,
                    "bound": metric["bound"],
                    "verdict": verdict,
                }
            )
        if _failed(b, workload) > _failed(a, workload):
            reasons.append(
                f"{workload}: failed operations rose from "
                f"{_failed(a, workload)} to {_failed(b, workload)}"
            )
    return rows, reasons


def mismatch(a: dict[str, Any], b: dict[str, Any]) -> list[str]:
    """What A and B were run with that differs (nothing: they compare)."""

    def made_with(results: dict[str, Any]) -> dict[str, Any]:
        return {
            "run_seconds": results["run_seconds"],
            "seeds": results["seeds"],
            "workloads": sorted({run["workload"] for run in results["runs"]}),
        }

    with_a, with_b = made_with(a), made_with(b)
    return [
        f"{key}: {with_a[key]} in A, {with_b[key]} in B"
        for key in with_a
        if with_a[key] != with_b[key]
    ]


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    differs = mismatch(a, b)
    if differs:
        for line in differs:
            print(f"NOT COMPARABLE  {line}")
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, reasons = compare(a, b, benchmark)
    print(
        f"{'workload':<18} {'metric':<16} {'A median [q1, q3]':<38} "
        f"{'B median [q1, q3]':<38} {'spreadA':>7} {'spreadB':>7} {'worse':>7} {'bound':>6}"
    )
    for row in rows:
        print(
            f"{row['workload']:<18} {row['metric']:<16} {_fmt(row['a']):<38} "
            f"{_fmt(row['b']):<38} {row['spread_a']:>7.3f} {row['spread_b']:>7.3f} "
            f"{row['worse']:>+7.3f} {row['bound']:>6.2f}  {row['verdict']}"
        )
    for reason in reasons:
        print(f"REGRESSED  {reason}")
    return 1 if reasons else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
