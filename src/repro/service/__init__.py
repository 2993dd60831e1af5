"""Scheduler-as-a-service: a resilient online decision API.

The batch simulator answers "what would this policy have done over a
month"; this package answers the production question — "which jobs start
*right now*" — for many independent clusters (tenants) at once, and it
answers **every** request within a per-tenant deadline even while decisions
fail, snapshots rot and queues overflow.  The pieces:

- :mod:`repro.service.api` — the request/response dataclasses and the
  per-tenant SLO (deadline, queue bound, retry budget);
- :mod:`repro.service.tenant` — :class:`~repro.service.tenant.TenantEngine`,
  a resumable incremental engine built directly on
  :meth:`repro.simulator.engine.Simulation.consume_batch`, so a fault-free
  tenant's decision stream is bit-identical to a batch run of the same
  trace and no request ever replays it;
- :mod:`repro.service.executor` — the degradation ladder (full search →
  anytime search on the node budget its time slice buys → pure backfill
  heuristic → start nothing);
- :mod:`repro.service.service` — the asyncio front end: admission
  control, bounded per-tenant queues with explicit load shedding,
  per-request retry with deterministic backoff, periodic tenant
  snapshots, and the choice of where a request runs (the event loop
  when it is cheaper than a thread hop, a worker thread otherwise);
- :mod:`repro.service.recovery` — one append-only log per tenant, each
  save a checksummed frame of the jobs finished since the last one and
  the tenant's live record, and the crash-recovery scan over it.

Robustness is verified the same way as the rest of the fault-tolerance
layer: the ``service.*`` sites in :data:`repro.util.faults.SITES` inject
deterministic failures, and the chaos suite asserts every request still
receives a valid (possibly degraded, and labeled as such) decision.  See
``docs/service.md``.
"""

from repro.service.api import (
    Decision,
    DecisionRequest,
    DecisionResponse,
    JobSpec,
    TenantSLO,
)
from repro.service.executor import DecisionLadder
from repro.service.recovery import (
    latest_tenant_snapshot,
    restore_tenant,
    snapshot_tenant,
)
from repro.service.service import (
    AdmissionError,
    DecisionService,
    ServiceConfig,
)
from repro.service.tenant import TenantEngine, TenantError

__all__ = [
    "AdmissionError",
    "Decision",
    "DecisionLadder",
    "DecisionRequest",
    "DecisionResponse",
    "DecisionService",
    "JobSpec",
    "ServiceConfig",
    "TenantEngine",
    "TenantError",
    "TenantSLO",
    "latest_tenant_snapshot",
    "restore_tenant",
    "snapshot_tenant",
]
