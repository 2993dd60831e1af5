"""One benchmark run: set up, time passes, check them, report.

``run()`` measures one workload for about ``seconds`` seconds and returns
the object printed as the last line of standard output::

    {"correct": true, "attempted": 9, "failed": 0,
     "metrics": {"decisions_per_s": {"value": 10412.7, "unit": "1/s"}, ...}}

With ``trace`` off the metrics are :data:`END_TO_END`; with it on, one
extra pass runs under the timing proxies and the metrics are
:data:`perfbench.layers.PER_LAYER` instead.

Every end-to-end time is stated in seconds of a host running at the
reference speed: each pass measures the host's speed while it runs
(:class:`perfbench.host.HostProbe`) and its times are scaled by it.  The
per-layer times of the traced pass are as the clock read them.

Set-up (trace generation, and a first complete pass that fills whatever
the program fills lazily) is repeated :data:`SETUP_REPEATS` times; its
median, plus the one kernel build and the one import of the program, is
``setup_s``.  The first set-up's pass is also the reference every later
pass is compared with, and ``peak_rss_mb`` is read right after it: the
memory of the program having replayed its inputs once, before the checks
and the repeated set-ups (old and new inputs alive together) add the
harness's own.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import time
from pathlib import Path
from typing import Any

import numpy as np
from repro.core.ckernel import have_compiled

from perfbench.build import OUT
from perfbench.layers import PER_LAYER, layer_metrics, percentile
from perfbench.spans import Tracer, layer_fractions
from perfbench.workloads import (
    BASE_SEED,
    WORKLOADS,
    BatchInputs,
    Leg,
    PassResult,
    batch_pass,
    check_feasible,
)

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END: list[tuple[str, str]] = [
    ("setup_s", "s"),
    ("decisions_per_s", "1/s"),
    ("latency_p99_us", "us"),
    ("peak_rss_mb", "MB"),
]

SETUP_REPEATS = 3
EXPECTED = Path(__file__).with_name("expected.json")


class OutputCheck:
    """Counts the operations checked — passes (batch) or requests
    (service) — and those that failed, and remembers why.

    The first pass is the reference for the rest, so a first pass that is
    itself wrong (:meth:`reject`) fails every operation of the run.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self._failed = 0
        self.rejected = False
        self.reasons: list[str] = []
        self.reference: dict[str, str] | None = None

    @property
    def failed(self) -> int:
        return self.attempted if self.rejected else self._failed

    def reject(self, reason: str) -> None:
        self.rejected = True
        self.reasons.append(reason)

    def add(self, result: PassResult) -> None:
        """Count one pass; its digests must be the first pass's."""
        self.attempted += result.attempted
        self._failed += result.failed
        if result.failed:
            self.reasons.append(f"{result.failed} operations of a pass failed")
        if self.reference is None:
            self.reference = result.digests
        elif result.digests != self.reference:
            self._failed += result.attempted - result.failed
            self.reasons.append("a pass produced a different schedule than the first")


def load_expected() -> dict[str, Any]:
    return json.loads(EXPECTED.read_text())


def check_first_pass(inputs: Any, first: PassResult, check: OutputCheck, name: str,
                     seed: int, scale: float) -> None:
    """The checks made once: a valid schedule, a second code path that
    agrees, and (default seed, full scale) the committed digests."""
    for label, jobs in first.jobs.items():
        reason = check_feasible(jobs, inputs.traces[label])
        if reason is not None:
            check.reject(f"{label}: {reason}")
    if isinstance(inputs, BatchInputs) and inputs.cross_check is not None:
        other = batch_pass(
            [Leg(leg.label, leg.trace, inputs.cross_check) for leg in inputs.legs]
        )
        if other.digests != first.digests:
            check.reject("the cross-check engine produced a different schedule")
    # (Service passes compare every tenant with its batch oracle themselves.)
    if seed == BASE_SEED and scale == 1.0:
        if first.digests != load_expected()["workloads"][name]["digests"]:
            check.reject("schedule digests differ from perfbench/expected.json")


def _timed(result: PassResult) -> dict[str, Any]:
    """One untraced pass's timings, at the reference host speed."""
    probe = result.probe
    assert probe is not None
    own = result.wall - probe.seconds
    return {
        "decisions_per_s": result.decisions / (own * probe.speed),
        "latencies": np.array(result.latencies) * probe.speed,
        "host_speed": probe.speed,
        "raw_decisions_per_s": result.decisions / own,
    }


def latency_p99_us(passes: list[dict[str, Any]], check: OutputCheck) -> float:
    """99th percentile over the operations of each operation's median
    latency across the passes.

    Every pass answers the same questions in the same order, so a stall of
    the host that lands on one answer in one pass is left out, and a slow
    answer — a long search, a request that writes a snapshot — stays.
    """
    if len({len(p["latencies"]) for p in passes}) != 1:
        check.reject("the passes did not make the same number of operations")
        passes = passes[:1]
    per_operation = np.median([p["latencies"] for p in passes], axis=0)
    return percentile(per_operation.tolist(), 0.99) * 1e6


def _spread(values: list[float]) -> str:
    """`` min q1 q3 n`` of the samples a reported median was taken over."""
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f" min {min(values):.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    build_s: float = 0.0,
    import_s: float = 0.0,
    scale: float = 1.0,
    verbose: bool = True,
) -> dict[str, Any]:
    """Measure workload ``name``; see the module docstring."""
    if not have_compiled():
        raise SystemExit("perfbench: the compiled kernel did not import; not measuring a fallback")
    spec = WORKLOADS[name]
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    check = OutputCheck()
    say = print if verbose else (lambda *a, **k: None)
    try:
        # ---- set-up, several times -----------------------------------
        setups: list[float] = []
        speeds: list[float] = []
        generate: list[float] = []
        passes: list[dict[str, Any]] = []
        for repeat in range(SETUP_REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            inputs = spec.build(seed, scale)
            generate.append(time.perf_counter() - t0)
            warm = inputs.run_pass(workdir=workdir)
            # The host is taken to have run the whole set-up at the speed
            # its pass measured.
            speed = warm.probe.speed
            speeds.append(speed)
            setups.append((time.perf_counter() - t0 - warm.probe.seconds) * speed)
            check.add(warm)
            if repeat == 0:
                # Linux reports ru_maxrss in KiB.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                check_first_pass(inputs, warm, check, name, seed, scale)
            else:
                # Only the process's first pass is cold; the later set-ups'
                # passes are as good a sample as the timed ones.
                passes.append(_timed(warm))

        # ---- timed passes ---------------------------------------------
        began = time.perf_counter()
        while len(passes) < SETUP_REPEATS or time.perf_counter() - began < seconds:
            gc.collect()
            result = inputs.run_pass(workdir=workdir)
            check.add(result)
            passes.append(_timed(result))
        medians = {
            key: statistics.median(p[key] for p in passes)
            for key in ("decisions_per_s", "host_speed", "raw_decisions_per_s")
        }
        end_to_end = {
            # ... and the build and import before them at their median speed.
            "setup_s": (build_s + import_s) * statistics.median(speeds)
            + statistics.median(setups),
            **medians,
            "latency_p99_us": latency_p99_us(passes, check),
            "peak_rss_mb": peak_rss_mb,
        }
        samples = {"setup_s": setups, **{k: [p[k] for p in passes] for k in medians}}
        for key, unit in END_TO_END + [("host_speed", "frac"), ("raw_decisions_per_s", "1/s")]:
            say(
                f"{name}  {key:<20} {end_to_end[key]:>14.6g} {unit:<4}"
                + _spread(samples.get(key, []))
            )

        metrics, units = end_to_end, dict(END_TO_END)
        # ---- one traced pass ------------------------------------------
        if trace:
            tracer = Tracer()
            gc.collect()
            traced = inputs.run_pass(tracer, workdir=workdir)
            check.add(traced)
            metrics = layer_metrics(
                tracer,
                traced,
                medians["raw_decisions_per_s"],
                {
                    "import_ms": import_s * 1e3,
                    "generate_ms": statistics.median(generate) * 1e3,
                    "jobs": sum(len(t.jobs) for t in inputs.traces.values()),
                },
            )
            units = {n: u for n, u, _ in PER_LAYER}
            if seed == BASE_SEED and scale == 1.0:
                expected = load_expected()["workloads"][name]["metrics"]
                if any(metrics[k] != v for k, v in expected.items()):
                    check.reject("metrics.* differ from perfbench/expected.json")
            for key, unit in units.items():
                say(f"{name}  {key:<34} {metrics[key]:>14.6g} {unit}")
            write_trace(name, seed, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for reason in check.reasons:
        say(f"{name}  FAILED: {reason}")
    return {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {
            key: {"value": metrics[key], "unit": unit} for key, unit in units.items()
        },
    }


def write_trace(name: str, seed: int, tracer: Tracer) -> Path:
    """Write the traced pass's spans to ``perfbench/out/trace-<name>.json``."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{name}.json"
    path.write_text(
        json.dumps(
            {
                "workload": name,
                "seed": seed,
                "clock": "time.perf_counter seconds",
                "self_frac": layer_fractions(tracer.spans),
                "spans": [span.to_dict() for span in tracer.spans],
            }
        )
    )
    return path
