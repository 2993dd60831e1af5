"""Run every workload over several seeds and keep the results.

``python3 -m perfbench suite --seeds 10 --out FILE`` makes the runs the
acceptance rule is stated over: one run per (seed, workload), each a fresh
process, and writes them as one result set for ``perfbench compare``.
Runs go seed by seed with the workloads in turn, so a slow spell of a
shared machine is spread over all workloads instead of landing on one.

``python3 -m perfbench expected`` rewrites ``expected.json`` — the
schedule digests and ``metrics.*`` of the default seed — and is the only
way that file should change: a PR that runs it is saying "this change
alters schedules".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from typing import Any

from perfbench.build import OUT, ROOT, build_program


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict[str, Any]:
    """One run in a fresh process; its result object plus what it ran."""
    done = subprocess.run(
        [
            sys.executable, "-m", "perfbench",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(int(trace)),
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    # Exit code 1 is a run that printed a result with failed operations.
    if done.returncode not in (0, 1):
        raise SystemExit(f"perfbench: the run of {workload} at seed {seed} did not finish")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"workload": workload, "seed": seed, "trace": trace, **result}


def main(argv: list[str]) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(prog="python3 -m perfbench suite", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=10,
                        help="runs per workload, at seeds 1..SEEDS")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", action="store_true",
                        help="also make one traced run per workload (first seed)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    workloads = args.workload or names
    seeds = list(range(1, args.seeds + 1))
    # Run length is the benchmark's, so two result sets always share it.
    seconds = benchmark["run_seconds"]
    runs = []
    for seed in seeds:
        for workload in workloads:
            run = run_once(workload, seed, seconds, trace=False)
            runs.append(run)
            print(
                f"seed {seed:>5}  {workload:<18}"
                + "".join(f"  {k} {v['value']:.6g}" for k, v in run["metrics"].items())
                + ("" if run["correct"] else "  INCORRECT"),
                flush=True,
            )
    if args.trace:
        for workload in workloads:
            runs.append(run_once(workload, seeds[0], seconds, trace=True))
            print(f"traced      {workload}", flush=True)

    build_program()
    from repro.core.ckernel import have_compiled

    out = {
        "schema": "perfbench-results/v1",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "compiled_available": have_compiled(),
        "run_seconds": seconds,
        "seeds": seeds,
        "claim": None,
        "runs": runs,
    }
    with open(args.out, "w") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")
    return 0 if all(run["correct"] for run in runs) else 1


def write_expected() -> int:
    """Regenerate ``perfbench/expected.json`` from one pass per workload."""
    from perfbench.layers import schedule_metrics
    from perfbench.runner import EXPECTED
    from perfbench.workloads import BASE_SEED, WORKLOADS

    workloads = {}
    workdir = OUT / "expected"
    try:
        for name, spec in WORKLOADS.items():
            result = spec.build(BASE_SEED, 1.0).run_pass(workdir=workdir)
            if result.failed:
                print(f"{name}: the pass failed its own checks; expected.json not written")
                return 1
            workloads[name] = {
                "digests": result.digests,
                "metrics": schedule_metrics(result),
            }
            print(f"{name}: {len(result.digests)} digests")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    EXPECTED.write_text(
        json.dumps({"seed": BASE_SEED, "workloads": workloads}, indent=1) + "\n"
    )
    return 0
