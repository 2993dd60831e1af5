"""Command line of the benchmark (``python3 -m perfbench``).

::

    python3 -m perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 -m perfbench suite [--seeds K] [--trace] --out FILE
    python3 -m perfbench compare A.json B.json
    python3 -m perfbench expected

The first form is one run of one workload and prints its result object as
the last line; the other three are thin drivers around it (see their
modules).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

from perfbench.build import build_program
from perfbench.host import keep_awake


def _run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    build_s = build_program()
    t0 = time.perf_counter()
    from perfbench.runner import run
    from perfbench.workloads import WORKLOADS

    import_s = time.perf_counter() - t0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    print(f"{args.workload}  kernel build/check {build_s:.3f} s, import {import_s:.3f} s")
    awake = keep_awake() if WORKLOADS[args.workload].crosses_threads else contextlib.nullcontext()
    with awake:
        result = run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            build_s=build_s, import_s=import_s,
        )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        from perfbench.compare import main as compare_main

        return compare_main(argv[1:])
    if argv and argv[0] == "suite":
        from perfbench.suite import main as suite_main

        return suite_main(argv[1:])
    if argv and argv[0] == "expected":
        build_program()
        from perfbench.suite import write_expected

        return write_expected()
    return _run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
