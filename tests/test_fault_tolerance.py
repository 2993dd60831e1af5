"""Differential chaos tests: injected faults must not change any result.

This is the acceptance suite of the fault-tolerance layer
(``docs/robustness.md``): with a seeded :class:`FaultPlan` corrupting
run-cache entries, every ``PolicyRun`` must come out **bit-identical** to its fault-free twin — recovery may
cost wall time, never correctness.  Cache corruption must additionally
be *quarantined*: logged with a reason, moved aside, counted, and never
served as a hit.
"""

from __future__ import annotations

import json

from repro.experiments.cache import QUARANTINE_DIR, RunCache
from repro.experiments.parallel import PolicySpec, RunSpec, WorkloadSpec, run_grid
from repro.util.faults import FaultPlan, faults_suppressed, injected_faults

WORKLOADS = [
    WorkloadSpec("2003-06", seed=11, scale=0.03),
    WorkloadSpec("2003-07", seed=11, scale=0.03),
]
POLICIES = [
    PolicySpec("fcfs-bf", node_limit=0),
    PolicySpec("dds/lxf/dynB", node_limit=64),
]
GRID = [RunSpec(w, p) for w in WORKLOADS for p in POLICIES]


def grid_signatures(outcome) -> list[tuple]:
    assert not outcome.errors
    return [
        (
            r.workload_name,
            r.policy_name,
            r.offered_load,
            tuple(sorted(r.metrics.as_dict().items())),
            r.avg_queue_length,
            r.utilization,
            tuple((j.job_id, j.start_time, j.end_time) for j in r.jobs),
        )
        for r in outcome.runs
    ]


# ----------------------------------------------------------------------
# Cache corruption: quarantine semantics
# ----------------------------------------------------------------------
def test_corrupt_cache_entries_are_quarantined_not_served(tmp_path):
    """Every entry of a grid written under cache.write=1.0 is corrupt; a
    warm re-read must quarantine all of them, log reasons, recompute, and
    still produce the exact fault-free results.

    The warm/healed phases assert exact *operational* accounting, so they
    run under :func:`faults_suppressed` — an ambient ``REPRO_FAULTS`` plan
    (the chaos CI job) must not re-corrupt the recovery we are verifying."""
    with faults_suppressed():
        clean = run_grid(GRID, max_workers=1)

    cache = RunCache(tmp_path / "cache")
    with injected_faults(FaultPlan.parse("seed=3,cache.write=1.0")) as injector:
        first = run_grid(GRID, max_workers=1, cache=cache)
    assert injector.fired["cache.write"] == len(GRID)
    assert grid_signatures(first) == grid_signatures(clean)

    with faults_suppressed():
        warm = run_grid(GRID, max_workers=1, cache=cache)
    assert warm.cache_hits == 0  # nothing corrupt may count as a hit
    assert warm.executed == len(GRID)
    assert cache.quarantined == len(GRID)
    assert grid_signatures(warm) == grid_signatures(clean)

    qdir = tmp_path / "cache" / QUARANTINE_DIR
    moved = list(qdir.glob("*.quarantined"))
    assert len(moved) == len(GRID)
    ledger = [
        json.loads(line)
        for line in (qdir / "ledger.jsonl").read_text().splitlines()
    ]
    assert len(ledger) == len(GRID)
    assert all(entry["reason"] for entry in ledger)

    # After quarantine + recompute the cache is healthy again.
    with faults_suppressed():
        healed = run_grid(GRID, max_workers=1, cache=cache)
    assert healed.cache_hits == len(GRID)
    assert grid_signatures(healed) == grid_signatures(clean)


def test_injected_torn_reads_read_as_misses(tmp_path):
    cache = RunCache(tmp_path / "cache")
    with faults_suppressed():  # seed the cache with two healthy entries
        run_grid(GRID[:2], max_workers=1, cache=cache)
    with injected_faults(FaultPlan.parse("seed=3,cache.read=1.0/1")):
        warm = run_grid(GRID[:2], max_workers=1, cache=cache)
    assert warm.cache_hits == 1  # one read torn, one served
    assert warm.executed == 1
    assert cache.quarantined == 1


def test_hand_corrupted_entry_never_crashes_or_hits(tmp_path):
    """Foreign corruption (not injected): flip bytes on disk by hand."""
    cache = RunCache(tmp_path / "cache")
    with faults_suppressed():
        run_grid(GRID[:1], max_workers=1, cache=cache)
    (entry,) = (tmp_path / "cache").glob("*/*.json")
    entry.write_text(entry.read_text()[:-40] + "}")  # structural damage

    with faults_suppressed():
        clean = run_grid(GRID[:1], max_workers=1)
        warm = run_grid(GRID[:1], max_workers=1, cache=cache)
    assert warm.cache_hits == 0
    assert cache.quarantined == 1
    assert grid_signatures(warm) == grid_signatures(clean)
