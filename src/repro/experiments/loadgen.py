"""Service load generator: the ``BENCH_service.json`` trajectory.

Drives a real :class:`~repro.service.service.DecisionService` — the full
asyncio stack: admission, per-tenant queues, the degradation ladder, the
tenant engines — with a deterministic synthetic multi-tenant workload and
records what the SLO story actually delivers: request throughput, the
p50/p90/p99 latency of complete responses, how many answers were
degraded, and the ladder's mode histogram.

The workload is closed-loop per tenant (each tenant awaits its response
before issuing the next request, so queues never grow without bound) with
tenants running concurrently; job sizes and inter-arrival gaps come from
seeded :class:`~repro.util.rng.RngStream` draws, so two runs issue the
identical request sequence and throughput differences are machine, not
workload.

Following the ``BENCH_search.json`` pattern: ``repro loadgen`` writes the
committed report, ``repro loadgen --check`` judges a fresh (usually
``--quick``) run against the committed report's tolerance band, and the
non-gating ``service-bench`` CI job keeps the numbers honest without
letting a noisy runner block merges.  Latency bands are deliberately
wide — the gating guarantees (every request answered, zero errors,
degradations labeled) are *structural* and checked exactly.
"""

from __future__ import annotations

import asyncio
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any

from repro.core.ckernel import have_compiled
from repro.core.scheduler import make_policy
from repro.service.api import DecisionRequest, JobSpec, TenantSLO
from repro.service.service import DecisionService, ServiceConfig
from repro.simulator.cluster import ClusterConfig, JobLimits
from repro.simulator.policy import SchedulingPolicy
from repro.util.atomio import atomic_write_json
from repro.util.rng import RngStream
from repro.util.timeunits import HOUR

#: Report format version (bump on incompatible layout changes).
SCHEMA = "repro-bench-service/v1"

#: Full-run shape: enough requests for stable percentiles.
FULL_TENANTS = 4
FULL_REQUESTS = 150
#: ``--quick`` keeps the CI smoke in seconds.
QUICK_TENANTS = 2
QUICK_REQUESTS = 40

#: The benchmark machine: a mid-size partition so queues actually form.
BENCH_NODES = 64
BENCH_NODE_LIMIT = 500


def _bench_cluster() -> ClusterConfig:
    return ClusterConfig(
        nodes=BENCH_NODES,
        limits=JobLimits(max_nodes=BENCH_NODES, max_runtime=24 * HOUR),
    )


def _bench_policy(tenant_id: str) -> SchedulingPolicy:
    return make_policy("dds", "lxf", node_limit=BENCH_NODE_LIMIT)


async def _drive_tenant(
    service: DecisionService,
    tenant_id: str,
    requests: int,
    seed: int,
    responses: list[Any],
) -> None:
    """Issue ``requests`` sequential decision requests for one tenant."""
    stream = RngStream(seed, f"loadgen/{tenant_id}")
    now = 0.0
    for i in range(requests):
        now += float(stream.uniform(30.0, 600.0))
        arrivals = tuple(
            JobSpec(
                job_id=i * 4 + k,
                nodes=int(stream.integers(1, BENCH_NODES // 2 + 1)),
                runtime=float(stream.uniform(300.0, 4 * HOUR)),
            )
            for k in range(int(stream.integers(1, 4)))
        )
        request = DecisionRequest(tenant=tenant_id, now=now, arrivals=arrivals)
        responses.append(await service.submit(request))


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 for empty input)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


async def _run(
    tenants: int, requests: int, seed: int, deadline: float
) -> dict[str, Any]:
    config = ServiceConfig(
        default_slo=TenantSLO(deadline_seconds=deadline, queue_limit=16)
    )
    service = DecisionService(
        _bench_policy, config=config, cluster_config=_bench_cluster()
    )
    tenant_ids = [f"tenant-{i:02d}" for i in range(tenants)]
    for tenant_id in tenant_ids:
        service.register_tenant(tenant_id)
    responses: list[Any] = []
    wall_start = time.perf_counter()
    async with service:
        await asyncio.gather(
            *(
                _drive_tenant(service, tenant_id, requests, seed, responses)
                for tenant_id in tenant_ids
            )
        )
    wall = time.perf_counter() - wall_start

    latencies = sorted(r.latency_seconds for r in responses)
    modes: dict[str, int] = {}
    decisions = 0
    for response in responses:
        for decision in response.decisions:
            decisions += 1
            modes[decision.mode] = modes.get(decision.mode, 0) + 1
    statuses = {status: 0 for status in ("ok", "shed", "rejected", "error")}
    for response in responses:
        statuses[response.status] += 1
    total = len(responses)
    return {
        "tenants": tenants,
        "requests_per_tenant": requests,
        "seed": seed,
        "deadline_seconds": deadline,
        "total_requests": total,
        "answered": total,  # submit() always answers; recorded for --check
        "statuses": statuses,
        "decisions": decisions,
        "degraded_responses": sum(1 for r in responses if r.degraded),
        "deadline_exceeded": sum(1 for r in responses if r.deadline_exceeded),
        "modes": modes,
        # Where engine work ran: requests on the event-loop thread vs
        # handed to a worker (``ON_LOOP_MAX_SECONDS``, service/service.py).
        "routes": {
            "on_loop": service.stats["on_loop"],
            "offloaded": service.stats["offloaded"],
        },
        "wall_seconds": wall,
        "throughput_rps": total / wall if wall > 0 else 0.0,
        "latency_seconds": {
            "p50": _percentile(latencies, 0.50),
            "p90": _percentile(latencies, 0.90),
            "p99": _percentile(latencies, 0.99),
            "max": latencies[-1] if latencies else 0.0,
        },
    }


def _available_cores() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


def run_loadgen(
    quick: bool = False,
    tenants: int | None = None,
    requests: int | None = None,
    seed: int = 2005,
    deadline: float = 2.0,
) -> dict[str, Any]:
    """Run the service benchmark and build the report dict."""
    if tenants is None:
        tenants = QUICK_TENANTS if quick else FULL_TENANTS
    if requests is None:
        requests = QUICK_REQUESTS if quick else FULL_REQUESTS
    results = asyncio.run(_run(tenants, requests, seed, deadline))
    return {
        "schema": SCHEMA,
        "benchmark": "decision-service-closed-loop",
        "quick": quick,
        "policy": f"DDS/lxf/dynB@L={BENCH_NODE_LIMIT}",
        "cluster_nodes": BENCH_NODES,
        "cores": _available_cores(),
        "compiled_available": have_compiled(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "results": results,
        "tolerance": TOLERANCE,
    }


#: The ``--check`` band.  Latency and throughput move with the builder,
#: so their bands are wide; the structural service guarantees (every
#: request answered, zero transport errors) are exact.
TOLERANCE: dict[str, float] = {
    # fresh throughput >= committed throughput x this
    "min_throughput_frac": 0.20,
    # fresh p99 latency <= committed p99 x this
    "max_p99_ratio": 6.0,
    # fraction of responses allowed to miss their deadline outright
    "max_deadline_exceeded_frac": 0.10,
}


def check_loadgen(fresh: dict[str, Any], committed: dict[str, Any]) -> list[str]:
    """Judge a fresh run against the committed report's tolerance band.

    Returns human-readable failures (empty == within tolerance).  The
    structural checks are absolute; the performance checks compare only
    when both reports ran the same benchmark shape.
    """
    tol = committed.get("tolerance", TOLERANCE)
    failures: list[str] = []
    results = fresh["results"]
    statuses = results["statuses"]

    if results["answered"] != results["total_requests"]:
        failures.append(
            f"{results['answered']} of {results['total_requests']} requests "
            "answered — the service must answer every accepted request"
        )
    if statuses.get("error", 0):
        failures.append(
            f"{statuses['error']} requests errored — a fault-free benchmark "
            "run must have zero transport errors"
        )
    if statuses.get("rejected", 0):
        failures.append(
            f"{statuses['rejected']} requests rejected — the generator only "
            "issues contract-valid requests"
        )
    max_exceeded = tol.get(
        "max_deadline_exceeded_frac", TOLERANCE["max_deadline_exceeded_frac"]
    )
    if results["total_requests"] > 0:
        exceeded_frac = results["deadline_exceeded"] / results["total_requests"]
        if exceeded_frac > max_exceeded:
            failures.append(
                f"{exceeded_frac:.1%} of responses exceeded their deadline "
                f"(band allows {max_exceeded:.0%})"
            )

    base = committed["results"]
    min_tp = tol.get("min_throughput_frac", TOLERANCE["min_throughput_frac"])
    if results["throughput_rps"] < base["throughput_rps"] * min_tp:
        failures.append(
            f"throughput {results['throughput_rps']:,.1f} req/s below "
            f"{min_tp:.0%} of committed {base['throughput_rps']:,.1f}"
        )
    max_p99 = tol.get("max_p99_ratio", TOLERANCE["max_p99_ratio"])
    fresh_p99 = results["latency_seconds"]["p99"]
    committed_p99 = base["latency_seconds"]["p99"]
    if committed_p99 > 0 and fresh_p99 > committed_p99 * max_p99:
        failures.append(
            f"p99 latency {fresh_p99 * 1000:.1f}ms above {max_p99:.0f}x "
            f"committed {committed_p99 * 1000:.1f}ms"
        )
    return failures


def write_loadgen(path: str | Path, **kwargs: Any) -> dict[str, Any]:
    """Run the benchmark and write the JSON report to ``path`` atomically."""
    report = run_loadgen(**kwargs)
    atomic_write_json(Path(path), report, indent=2, sort_keys=True)
    return report


def main() -> int:  # pragma: no cover - thin wrapper for ``python -m``
    report = write_loadgen("BENCH_service.json")
    results = report["results"]
    print(
        f"{results['total_requests']} requests, "
        f"{results['throughput_rps']:,.1f} req/s, "
        f"p50 {results['latency_seconds']['p50'] * 1000:.1f}ms, "
        f"p99 {results['latency_seconds']['p99'] * 1000:.1f}ms"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
