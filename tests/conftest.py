"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import dataclasses
import itertools
import os
from typing import Any

import pytest

from repro.simulator import events
from repro.simulator.cluster import ClusterConfig, JobLimits
from repro.simulator.job import Job, JobState
from repro.util.timeunits import HOUR


_JOB_COUNTER = itertools.count(1)


def pytest_collection_modifyitems(config, items):
    """Under a chaos run (``REPRO_FAULTS`` set), skip fault-sensitive tests.

    Almost the whole suite must pass unchanged while faults are being
    injected — that is the point of the chaos CI job.  A handful of tests
    assert exact *operational* accounting (cache hit counts, warm-pool
    reuse) that injected faults legitimately perturb without making any
    result wrong; they opt out via ``@pytest.mark.fault_sensitive``.
    """
    if not os.environ.get("REPRO_FAULTS"):
        return
    skip = pytest.mark.skip(
        reason="asserts fault-free operational accounting (REPRO_FAULTS set)"
    )
    for item in items:
        if "fault_sensitive" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(autouse=True)
def _isolated_execution():
    """Keep each test's parallel/cache/fault configuration from leaking."""
    yield
    from repro.experiments import parallel
    from repro.util import faults

    parallel.reset_execution()
    faults.reset_faults()


def make_job(
    job_id: int | None = None,
    submit: float = 0.0,
    nodes: int = 1,
    runtime: float = HOUR,
    requested: float | None = None,
    waiting: bool = False,
) -> Job:
    """A job with convenient defaults; ``waiting=True`` marks it queued."""
    job = Job(
        job_id=job_id if job_id is not None else next(_JOB_COUNTER),
        submit_time=submit,
        nodes=nodes,
        runtime=runtime,
        requested_runtime=requested,
    )
    if waiting:
        job.state = JobState.WAITING
    return job


def small_cluster(nodes: int = 4, max_runtime: float = 1000 * HOUR) -> ClusterConfig:
    """A tiny cluster whose limits admit anything the tests construct."""
    return ClusterConfig(
        nodes=nodes, limits=JobLimits(max_nodes=nodes, max_runtime=max_runtime)
    )


@pytest.fixture
def cluster4() -> ClusterConfig:
    return small_cluster(4)


@pytest.fixture
def cluster128() -> ClusterConfig:
    return small_cluster(128)


@pytest.fixture
def parent_format_events(monkeypatch):
    """While active, ``EventQueue.push`` makes the ``@dataclass(order=True)``
    events every release before the tuple ``Event`` made, pickled under
    the same import path — so what gets saved is byte-for-byte an old
    snapshot.  Call the returned function to put the real class back."""
    @dataclasses.dataclass(order=True)
    class Event:
        time: float
        seq: int
        kind: events.EventKind = dataclasses.field(compare=False)
        payload: Any = dataclasses.field(compare=False, default=None)

    Event.__module__ = events.__name__
    Event.__qualname__ = "Event"
    monkeypatch.setattr(events, "Event", Event)
    return monkeypatch.undo
