"""Per-layer metrics of one traced pass.

:data:`PER_LAYER` is the list ``BENCHMARK.json`` repeats; every workload
reports every name, and a layer the workload bypasses reads 0 — that zero
is the "no change expected here" cell of the interaction table in
``perfbench/README.md``.

Times come from spans (:mod:`perfbench.spans`); counts are read at the
same boundaries.  The *layer replay* then re-times the public functions a
search decision is made of, on the inputs of every eighth decision the
traced pass captured, to say where inside ``scheduler.self_*`` the time
goes.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Any, Sequence

from repro.core.branching import order_jobs
from repro.core.deltascore import JobArrays
from repro.core.profile import AvailabilityProfile
from repro.metrics import compute_metrics

from perfbench.spans import Span, Tracer, layer_fractions, layer_self_seconds, self_times
from perfbench.workloads import PassResult

#: (name, unit, better) of every per-layer metric, in report order.  For a
#: count that only describes the workload, ``better`` has no meaning.
PER_LAYER: list[tuple[str, str, str]] = [
    ("setup.import_ms", "ms", "lower"),
    ("workloads.generate_ms", "ms", "lower"),
    ("workloads.jobs", "count", "lower"),
    ("harness.self_frac", "frac", "lower"),
    ("simulator.decisions", "count", "lower"),
    ("simulator.self_us_per_decision", "us", "lower"),
    ("simulator.self_frac", "frac", "lower"),
    ("scheduler.decide_p50_us", "us", "lower"),
    ("scheduler.decide_p99_us", "us", "lower"),
    ("scheduler.self_us_per_decision", "us", "lower"),
    ("scheduler.self_frac", "frac", "lower"),
    ("scheduler.queue_len_p50", "count", "lower"),
    ("scheduler.queue_len_max", "count", "lower"),
    ("scheduler.improved_frac", "frac", "higher"),
    ("scheduler.limit_hit_frac", "frac", "lower"),
    ("scheduler.unattributed_frac", "frac", "lower"),
    ("search.calls", "count", "lower"),
    ("search.nodes_visited", "count", "lower"),
    ("search.nodes_per_s", "1/s", "higher"),
    ("search.p50_us", "us", "lower"),
    ("search.p99_us", "us", "lower"),
    ("search.self_frac", "frac", "lower"),
    ("branching.order_jobs_us", "us", "lower"),
    ("objective.bound_value_us", "us", "lower"),
    ("profile.from_running_us", "us", "lower"),
    ("profile.search_view_us", "us", "lower"),
    ("deltascore.job_arrays_build_us", "us", "lower"),
    ("search.startable_now_us", "us", "lower"),
    ("backfill.decide_p50_us", "us", "lower"),
    ("backfill.decide_p99_us", "us", "lower"),
    ("backfill.self_frac", "frac", "lower"),
    ("backfill.backfilled_starts", "count", "lower"),
    ("service.requests", "count", "lower"),
    ("service.failed", "count", "lower"),
    ("service.req_per_s", "1/s", "higher"),
    ("service.request_p50_us", "us", "lower"),
    ("service.self_us_per_req", "us", "lower"),
    ("service.queue_wait_p50_us", "us", "lower"),
    ("service.queue_wait_p99_us", "us", "lower"),
    ("service.self_frac", "frac", "lower"),
    ("service.mode_search_frac", "frac", "higher"),
    ("tenant.handle_p50_us", "us", "lower"),
    ("tenant.self_us_per_req", "us", "lower"),
    ("tenant.self_frac", "frac", "lower"),
    ("tenant.decisions_per_req", "count", "lower"),
    ("executor.self_us_per_decision", "us", "lower"),
    ("executor.self_frac", "frac", "lower"),
    ("executor.degraded", "count", "lower"),
    ("recovery.snapshots", "count", "lower"),
    ("recovery.replayed_requests", "count", "lower"),
    ("recovery.snapshot_p50_ms", "ms", "lower"),
    ("recovery.snapshot_max_ms", "ms", "lower"),
    ("recovery.snapshot_bytes_last", "bytes", "lower"),
    ("recovery.restore_ms", "ms", "lower"),
    ("recovery.self_frac", "frac", "lower"),
    ("metrics.avg_wait_h", "h", "lower"),
    ("metrics.max_wait_h", "h", "lower"),
    ("metrics.avg_bsld", "ratio", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]

#: The layers whose ``self_frac`` is reported; together they are every
#: span name's first component, so the fractions of a workload sum to 1.
LAYERS = (
    "harness",
    "simulator",
    "scheduler",
    "search",
    "backfill",
    "service",
    "tenant",
    "executor",
    "recovery",
)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def schedule_metrics(result: PassResult) -> dict[str, float]:
    """``metrics.*``: the simulated outcome over every job the pass ran.
    Exact, so a change that only makes things faster leaves them bit-equal."""
    summary = compute_metrics([j for jobs in result.jobs.values() for j in jobs])
    return {
        "metrics.avg_wait_h": summary.avg_wait_hours,
        "metrics.max_wait_h": summary.max_wait_hours,
        "metrics.avg_bsld": summary.avg_bounded_slowdown,
    }


# ----------------------------------------------------------------------
# Layer replay
# ----------------------------------------------------------------------
#: The replayed functions, in the order ``SearchSchedulingPolicy.decide``
#: calls them.
REPLAYED = (
    "branching.order_jobs_us",
    "objective.bound_value_us",
    "profile.from_running_us",
    "profile.search_view_us",
    "deltascore.job_arrays_build_us",
    "search.startable_now_us",
)


def replay_layers(samples: Sequence[dict[str, Any]]) -> tuple[dict[str, float], float]:
    """Median µs per call of each replayed function, and the seconds they
    took in total (to compare with the sampled decisions' self time)."""
    clock = time.perf_counter
    stamps: list[tuple[float, ...]] = []
    for sample in samples:
        policy = sample["policy"]
        now = sample["now"]
        waiting = sample["waiting"]
        runtimes = {job.job_id: policy.runtime_of(job) for job in waiting}
        t0 = clock()
        ordered = order_jobs(
            waiting, policy.heuristic, now, runtime_of=lambda j: runtimes[j.job_id]
        )
        t1 = clock()
        policy.bound.value(now, waiting)
        t2 = clock()
        profile = AvailabilityProfile.from_running(
            sample["capacity"], now, sample["running"]
        )
        t3 = clock()
        profile.search_view()
        t4 = clock()
        JobArrays.build(ordered, runtimes, policy.objective.slowdown_floor)
        t5 = clock()
        sample["result"].jobs_startable_now(now)
        t6 = clock()
        stamps.append((t0, t1, t2, t3, t4, t5, t6))
    medians = {
        name: statistics.median(s[i + 1] - s[i] for s in stamps) * 1e6
        for i, name in enumerate(REPLAYED)
    }
    return medians, sum(s[-1] - s[0] for s in stamps)


# ----------------------------------------------------------------------
# Metrics from spans
# ----------------------------------------------------------------------
def layer_metrics(
    tracer: Tracer,
    traced: PassResult,
    untraced_decisions_per_s: float,
    context: dict[str, float],
) -> dict[str, float]:
    """Every :data:`PER_LAYER` value of one traced pass.

    ``context`` carries what no span records: ``import_ms``,
    ``generate_ms`` and ``jobs``.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    layer_self = layer_self_seconds(spans)
    fractions = layer_fractions(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name: str) -> list[Span]:
        return by_name.get(name, [])

    def durations(name: str) -> list[float]:
        return [s.duration for s in named(name)]

    def count(name: str, key: str) -> list[Any]:
        return [s.counts[key] for s in named(name) if s.counts and key in s.counts]

    m = {name: 0.0 for name, _, _ in PER_LAYER}
    m["setup.import_ms"] = context["import_ms"]
    m["workloads.generate_ms"] = context["generate_ms"]
    m["workloads.jobs"] = context["jobs"]
    for layer in LAYERS:
        m[f"{layer}.self_frac"] = fractions.get(layer, 0.0)

    decisions = traced.decisions
    m["simulator.decisions"] = decisions
    m["simulator.self_us_per_decision"] = _ratio(
        layer_self.get("simulator", 0.0) * 1e6, decisions
    )

    decides = durations("scheduler.decide")
    m["scheduler.decide_p50_us"] = percentile(decides, 0.50) * 1e6
    m["scheduler.decide_p99_us"] = percentile(decides, 0.99) * 1e6
    m["scheduler.self_us_per_decision"] = _ratio(
        layer_self.get("scheduler", 0.0) * 1e6, len(decides)
    )
    queued = [n for n in count("scheduler.decide", "queue_len") if n > 0]
    m["scheduler.queue_len_p50"] = percentile(queued, 0.50)
    m["scheduler.queue_len_max"] = max(queued, default=0)

    searches = named("search.search")
    search_seconds = sum(s.duration for s in searches)
    nodes = sum(count("search.search", "nodes"))
    m["search.calls"] = len(searches)
    m["search.nodes_visited"] = nodes
    m["search.nodes_per_s"] = _ratio(nodes, search_seconds)
    m["search.p50_us"] = percentile(durations("search.search"), 0.50) * 1e6
    m["search.p99_us"] = percentile(durations("search.search"), 0.99) * 1e6
    m["scheduler.improved_frac"] = _ratio(
        sum(count("search.search", "improved")), len(searches)
    )
    m["scheduler.limit_hit_frac"] = _ratio(
        sum(count("search.search", "limit_hit")), len(searches)
    )

    if tracer.samples:
        replayed, replay_seconds = replay_layers(tracer.samples)
        m.update(replayed)
        sampled_self = sum(selfs[s["span"].id] for s in tracer.samples)
        m["scheduler.unattributed_frac"] = 1.0 - _ratio(replay_seconds, sampled_self)

    backfills = durations("backfill.decide")
    m["backfill.decide_p50_us"] = percentile(backfills, 0.50) * 1e6
    m["backfill.decide_p99_us"] = percentile(backfills, 0.99) * 1e6
    m["backfill.backfilled_starts"] = traced.counters.get("backfilled_starts", 0)

    requests = named("service.request")
    if requests:
        m["service.requests"] = len(requests)
        m["service.failed"] = traced.failed
        m["service.req_per_s"] = len(requests) / traced.wall
        m["service.request_p50_us"] = percentile(durations("service.request"), 0.50) * 1e6
        m["service.self_us_per_req"] = layer_self["service"] * 1e6 / len(requests)
        started = {s.id: s.start for s in requests}
        handles = named("tenant.handle")
        waits = [h.start - started[h.parent] for h in handles]  # type: ignore[index]
        m["service.queue_wait_p50_us"] = percentile(waits, 0.50) * 1e6
        m["service.queue_wait_p99_us"] = percentile(waits, 0.99) * 1e6
        modes = count("executor.decide", "mode")
        m["service.mode_search_frac"] = _ratio(modes.count("search"), len(modes))
        m["tenant.handle_p50_us"] = percentile(durations("tenant.handle"), 0.50) * 1e6
        m["tenant.self_us_per_req"] = layer_self["tenant"] * 1e6 / len(requests)
        m["tenant.decisions_per_req"] = decisions / len(requests)
        m["executor.self_us_per_decision"] = _ratio(
            layer_self["executor"] * 1e6, len(modes)
        )
        m["executor.degraded"] = len(modes) - modes.count("search")

    snapshots = durations("recovery.snapshot")
    m["recovery.snapshots"] = len(snapshots)
    m["recovery.replayed_requests"] = traced.counters.get("replayed_requests", 0)
    m["recovery.snapshot_p50_ms"] = percentile(snapshots, 0.50) * 1e3
    m["recovery.snapshot_max_ms"] = max(snapshots, default=0.0) * 1e3
    sizes = count("recovery.snapshot", "bytes")
    m["recovery.snapshot_bytes_last"] = sizes[-1] if sizes else 0
    m["recovery.restore_ms"] = sum(durations("recovery.restore")) * 1e3

    m.update(schedule_metrics(traced))

    m["trace.overhead_frac"] = 1.0 - _ratio(
        decisions / traced.wall, untraced_decisions_per_s
    )
    return m
