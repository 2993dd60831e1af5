"""Snapshots that cost what changed (``repro.service.recovery``).

A tenant's persisted state is one append-only log; each save appends one
checksummed frame of the jobs finished since the previous save and the
bounded *live record* (``docs/service.md``, "Recovery guarantees").  The
properties held here:

- snapshot then restore is the uninterrupted engine, at every cut point
  of a trace and on both runtime sources, and stays so to the end of it;
- what a save appends is a function of live state and of the jobs
  finished since the previous save — not of the tenant's age;
- a log that is torn or short never yields a wrong tenant: restore takes
  the newest save whose frame is in the intact prefix and cuts
  everything newer away, idempotently;
- a failed save does not poison the next one;
- a frame that is not intact ends the log, and a record that does not
  rebuild is skipped for an older one.
"""

from __future__ import annotations

import asyncio
import copy
import logging
import os
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backfill import fcfs_backfill
from repro.cli import parse_policy
from repro.service.api import DecisionRequest, JobSpec
from repro.service.recovery import (
    LOG_NAME,
    SnapshotWriter,
    latest_tenant_snapshot,
    list_tenants,
    restore_tenant,
    snapshot_tenant,
)
from repro.service.service import AdmissionError, DecisionService, ServiceConfig
from repro.service.tenant import TenantEngine
from repro.util.faults import FaultPlan, faults_suppressed, injected_faults
from repro.util.sanitize import sanitized
from repro.util.timeunits import time_eq
from repro.workloads.synthetic import generate_month
from tests.conftest import small_cluster


@lru_cache(maxsize=None)
def _month(scale):
    return generate_month("2003-07", seed=2005, scale=scale)


@lru_cache(maxsize=None)
def _requests(scale):
    """One request per distinct submit instant, then a drain of what runs."""
    groups: list[list] = []
    for job in _month(scale).jobs:  # sorted by (submit_time, job_id)
        if groups and time_eq(job.submit_time, groups[-1][0].submit_time):
            groups[-1].append(job)
        else:
            groups.append([job])
    requests = [
        DecisionRequest(
            tenant="t", now=group[0].submit_time,
            arrivals=tuple(JobSpec.from_job(j) for j in group),
        )
        for group in groups
    ]
    requests.append(DecisionRequest(tenant="t", now=requests[-1].now + 1e9))
    return tuple(requests)


def _tenant(scale, runtime_source="actual"):
    workload = _month(scale)
    return TenantEngine(
        "t", parse_policy("dds/lxf/dynB", 200, runtime_source),
        cluster_config=workload.cluster, window=workload.window,
    )


def _finished(engine):
    """Completed jobs as the metrics read them: ids, times, in list order."""
    return [(j.job_id, j.start_time, j.end_time) for j in engine.completed_jobs]


def _assert_same_tenant(restored, original):
    assert _finished(restored) == _finished(original)
    assert set(restored.jobs) == set(original.jobs)
    assert all(restored.jobs[j.job_id] is j for j in restored.completed_jobs)
    assert [j.job_id for j in restored.loop_state.waiting] == [
        j.job_id for j in original.loop_state.waiting
    ]
    assert [j.job_id for j in restored.sim.cluster.running_jobs] == [
        j.job_id for j in original.sim.cluster.running_jobs
    ]
    assert restored.decided_through == original.decided_through
    assert restored.decision_count == original.decision_count
    assert restored.sim.policy.stats == original.sim.policy.stats


# ----------------------------------------------------------------------
# (1) snapshot -> restore is the uninterrupted engine, at every cut
# ----------------------------------------------------------------------
SLICE = 0.03  # 62 arrival instants of July 2003


@pytest.mark.fault_sensitive  # an injected service.snapshot tear breaks restore
@settings(max_examples=60, deadline=None)
@given(
    cut=st.integers(0, len(_requests(SLICE))),
    runtime_source=st.sampled_from(["actual", "requested"]),
)
def test_restore_at_every_cut_is_the_uninterrupted_engine(cut, runtime_source):
    requests = _requests(SLICE)
    original = _tenant(SLICE, runtime_source)
    for request in requests[:cut]:
        original.handle(request)
    with tempfile.TemporaryDirectory() as root:
        snapshot_tenant(original, root)
        restored = restore_tenant(root, "t")
    _assert_same_tenant(restored, original)
    for request in requests[cut:]:
        assert restored.handle(request) == original.handle(request)
    _assert_same_tenant(restored, original)
    assert len(restored.completed_jobs) == len(_month(SLICE).jobs)


def test_a_snapshot_with_the_old_dataclass_events_is_skipped_with_a_warning(
    tmp_path, parent_format_events, caplog
):
    """A live record whose event heap holds the dataclass instances of
    releases before ``Event`` became a tuple does not unpickle; it is
    skipped like any other unusable record and the tenant starts over —
    no ``TypeError`` escapes."""
    engine = _tenant(SLICE)
    for request in _requests(SLICE)[:20]:
        engine.handle(request)
    assert len(engine.loop_state.events) > 0  # queued FINISH events, old format
    with faults_suppressed():  # the subject is the record, not a torn save
        snapshot_tenant(engine, tmp_path)
    parent_format_events()  # back to the real class
    with caplog.at_level(logging.WARNING):
        assert latest_tenant_snapshot(tmp_path, "t") is None
    assert "skipping unusable tenant snapshot" in caplog.text
    with pytest.raises(FileNotFoundError):
        restore_tenant(tmp_path, "t")


def test_a_snapshot_written_before_batch_checkpoints_were_retired_restores(
    tmp_path, monkeypatch
):
    """Until batch checkpoints were retired, ``LoopState`` had a
    ``saved_at`` field and ``Simulation`` a ``checkpoint`` attribute, so
    every live record of then pickled both.  Attributes this version no
    longer has unpickle as plain attributes nothing reads: such a record
    restores, and the tenant goes on deciding exactly like the
    uninterrupted one."""
    requests = _requests(SLICE)
    cut = len(requests) // 2
    original = _tenant(SLICE)
    for request in requests[:cut]:
        original.handle(request)

    record = original.snapshot_record()  # its "state" is already a copy
    record["state"].saved_at = original.decision_count
    record["simulation"] = copy.copy(record["simulation"])
    record["simulation"].checkpoint = None
    monkeypatch.setattr(original, "snapshot_record", lambda: record)
    with faults_suppressed():  # the subject is the record, not a torn save
        path = snapshot_tenant(original, tmp_path)
    monkeypatch.undo()
    raw = path.read_bytes()
    assert b"saved_at" in raw and b"checkpoint" in raw

    restored = restore_tenant(tmp_path, "t")
    assert restored.loop_state.saved_at == original.decision_count
    _assert_same_tenant(restored, original)
    with sanitized():
        for request in requests[cut:]:
            assert restored.handle(request) == original.handle(request)
    _assert_same_tenant(restored, original)
    assert len(restored.completed_jobs) == len(_month(SLICE).jobs)


# ----------------------------------------------------------------------
# (2) what a save appends follows live state, not the tenant's age
# ----------------------------------------------------------------------
#: Bytes of one save's live record.
SNAPSHOT_BYTES_MAX = 16 * 1024
#: Bytes per job finished since the previous save, the frame's header and
#: checksum included (measured 93 per job over this replay; the record
#: beside them is 1.7-3.9 KB).
LOG_BYTES_PER_JOB_MAX = 512


def test_snapshot_size_follows_live_state_not_history(tmp_path):
    """One save appends at most a bounded record plus a bounded amount per
    job finished since the previous save."""
    engine = _tenant(1.0)
    writer = SnapshotWriter(tmp_path / "t")
    log_path = tmp_path / "t" / LOG_NAME
    saved_at = logged = log_bytes = saves = 0
    for request in _requests(1.0)[:-1]:
        engine.handle(request)
        if engine.decision_count - saved_at < 64:
            continue
        saved_at = engine.decision_count
        with faults_suppressed():  # the subject is the size, not a torn save
            assert writer.save(engine) == log_path
        saves += 1
        appended = log_path.stat().st_size - log_bytes
        finished = len(engine.completed_jobs) - logged
        assert appended <= SNAPSHOT_BYTES_MAX + LOG_BYTES_PER_JOB_MAX * finished
        log_bytes += appended
        logged += finished
        assert (writer.count, writer.offset) == (logged, log_bytes)
    writer.close()
    assert saves > 50 and logged > 2000  # the whole-tenant blob here: 196 KB


# ----------------------------------------------------------------------
# (3) a torn or short log: the newest save the intact prefix holds
# ----------------------------------------------------------------------
def _arrival(job_id, now, runtime):
    return DecisionRequest(
        tenant="t", now=now,
        arrivals=(JobSpec(job_id=job_id, nodes=1, runtime=runtime),),
    )


def _three_saves(root):
    """Saves after 1, 2 and 3 jobs finished (one frame each, all intact);
    returns the engine and the log's size after each save."""
    engine = TenantEngine("t", fcfs_backfill(), cluster_config=small_cluster(4))
    sizes = []
    for i in (1, 2, 3):
        engine.handle(_arrival(i, now=100.0 * i, runtime=10.0))
        engine.handle(DecisionRequest(tenant="t", now=100.0 * i + 50.0))
        assert len(engine.completed_jobs) == i
        with faults_suppressed():
            snapshot_tenant(engine, root)
        sizes.append((Path(root) / "t" / LOG_NAME).stat().st_size)
    return engine, sizes


@pytest.mark.fault_sensitive  # needs every save intact
@pytest.mark.parametrize(
    "keep_bytes, expect_finished",
    [
        pytest.param(lambda s: s[2] - 7, 2, id="last-frame-torn"),
        pytest.param(lambda s: s[1], 2, id="last-frame-missing"),
        pytest.param(lambda s: s[0] + 9, 1, id="two-frames-gone"),
        pytest.param(lambda s: s[0] - 1, None, id="shorter-than-every-snapshot"),
        pytest.param(lambda s: 0, None, id="empty"),
    ],
)
def test_restore_takes_the_newest_snapshot_the_log_covers(
    tmp_path, keep_bytes, expect_finished
):
    _, sizes = _three_saves(tmp_path)
    log_path = tmp_path / "t" / LOG_NAME
    cut = keep_bytes(sizes)
    log_path.write_bytes(log_path.read_bytes()[:cut])

    restored = latest_tenant_snapshot(tmp_path, "t")
    if expect_finished is None:
        assert restored is None
        assert log_path.stat().st_size == cut  # left as found
        return
    assert [j.job_id for j in restored.completed_jobs] == list(
        range(1, expect_finished + 1)
    )
    # Cut back to the restored save: the log ends on its frame.
    assert log_path.stat().st_size == sizes[expect_finished - 1]


@pytest.mark.fault_sensitive
def test_a_save_that_finished_nothing_restores_with_nothing_finished(tmp_path):
    """A frame of no jobs carries the record alone, and is restored as
    one: a tenant with a job running and nothing finished."""
    engine = TenantEngine("t", fcfs_backfill(), cluster_config=small_cluster(4))
    engine.handle(_arrival(1, now=10.0, runtime=1000.0))
    snapshot_tenant(engine, tmp_path)  # nothing finished yet
    first = (tmp_path / "t" / LOG_NAME).stat().st_size
    engine.handle(DecisionRequest(tenant="t", now=2000.0))
    snapshot_tenant(engine, tmp_path)
    os.truncate(tmp_path / "t" / LOG_NAME, first)
    restored = latest_tenant_snapshot(tmp_path, "t")
    assert restored is not None
    assert restored.completed_jobs == [] and restored.running_count == 1


# ----------------------------------------------------------------------
# (4) crash twice with no save in between
# ----------------------------------------------------------------------
@pytest.mark.fault_sensitive
def test_restoring_twice_without_a_save_truncates_once_and_duplicates_nothing(
    tmp_path,
):
    requests = _requests(SLICE)
    a, b = len(requests) // 3, 2 * len(requests) // 3
    engine = _tenant(SLICE)
    for request in requests[:a]:
        engine.handle(request)
    snapshot_tenant(engine, tmp_path)
    at_a = (tmp_path / "t" / LOG_NAME).stat().st_size
    for request in requests[a:b]:
        engine.handle(request)
    # The save at b gets half its frame into the log, then fails.
    with injected_faults(FaultPlan.parse("seed=1,service.snapshot=1.0")):
        with pytest.raises(OSError, match="short write"):
            snapshot_tenant(engine, tmp_path)
    assert (tmp_path / "t" / LOG_NAME).stat().st_size > at_a

    lives = []
    for _ in range(2):  # crash, restore, run on without saving, crash again
        restored = restore_tenant(tmp_path, "t")
        assert (tmp_path / "t" / LOG_NAME).stat().st_size == at_a
        for request in requests[a:]:
            restored.handle(request)
        lives.append(restored)

    for request in requests[b:]:
        engine.handle(request)
    for restored in lives:
        _assert_same_tenant(restored, engine)
        ids = [j.job_id for j in restored.completed_jobs]
        assert len(ids) == len(set(ids)) == len(_month(SLICE).jobs)


# ----------------------------------------------------------------------
# (5) a failed save does not poison the next one
# ----------------------------------------------------------------------
class _TornWrite:
    """A log file whose next write puts half the bytes down, then fails."""

    def __init__(self, file):
        self.file = file

    def write(self, data):
        self.file.write(data[: len(data) // 2])
        raise OSError("disk full")

    def __getattr__(self, name):
        return getattr(self.file, name)


def test_a_torn_append_is_logged_answered_and_overwritten_by_the_next(
    tmp_path, caplog
):
    def service_for():
        return DecisionService(
            lambda tenant_id: fcfs_backfill(),
            config=ServiceConfig(snapshot_root=tmp_path, snapshot_every_decisions=1),
            cluster_config=small_cluster(4),
        )

    async def first_life():
        service = service_for()
        service.register_tenant("t")
        writer = service._require("t").writer
        responses = [await service.submit(_arrival(1, now=10.0, runtime=5.0))]
        intact = writer._file
        writer._file = _TornWrite(intact)  # job 1 finishes: this save appends
        responses.append(await service.submit(_arrival(2, now=100.0, runtime=5.0)))
        torn_size = (tmp_path / "t" / LOG_NAME).stat().st_size
        writer._file = intact
        responses.append(await service.submit(_arrival(3, now=200.0, runtime=5.0)))
        writer.close()  # no service.close(): the crash takes the handle with it
        return service, responses, torn_size

    with faults_suppressed(), caplog.at_level(
        logging.WARNING, logger="repro.service.recovery"
    ):
        service, responses, torn_size = asyncio.run(first_life())
    assert [r.status for r in responses] == ["ok", "ok", "ok"]
    assert service.stats["snapshots"] == 2
    (record,) = [r for r in caplog.records if r.name == "repro.service.recovery"]
    assert "tenant t at decision 3 failed: disk full" in record.getMessage()
    assert 0 < torn_size < (tmp_path / "t" / LOG_NAME).stat().st_size

    restored = restore_tenant(tmp_path, "t")
    _assert_same_tenant(restored, service.tenant("t"))
    assert [j.job_id for j in restored.completed_jobs] == [1, 2]


# ----------------------------------------------------------------------
# (6) a frame that is not intact ends the log
# ----------------------------------------------------------------------
def _damage(path, at, replacement):
    raw = bytearray(path.read_bytes())
    raw[at : at + len(replacement)] = replacement
    path.write_bytes(bytes(raw))


def test_a_frame_with_bad_magic_ends_the_intact_prefix(tmp_path):
    _, sizes = _three_saves(tmp_path)
    log_path = tmp_path / "t" / LOG_NAME
    _damage(log_path, sizes[0], b"FJL1")  # the second frame's magic
    restored = restore_tenant(tmp_path, "t")
    assert [j.job_id for j in restored.completed_jobs] == [1]
    assert log_path.stat().st_size == sizes[0]


def test_a_flipped_byte_ends_the_intact_prefix(tmp_path):
    _, sizes = _three_saves(tmp_path)
    log_path = tmp_path / "t" / LOG_NAME
    _damage(log_path, sizes[2] - 1, bytes([log_path.read_bytes()[-1] ^ 0xFF]))
    restored = restore_tenant(tmp_path, "t")
    assert [j.job_id for j in restored.completed_jobs] == [1, 2]
    assert log_path.stat().st_size == sizes[1]


def test_a_frame_that_does_not_follow_its_predecessor_ends_the_log(
    tmp_path, caplog
):
    """An intact frame replayed at the wrong place (here the second one,
    twice) starts at a job the log has already passed: it is not part of
    the log, so it is cut away without a warning about a bad record."""
    _, sizes = _three_saves(tmp_path)
    log_path = tmp_path / "t" / LOG_NAME
    raw = log_path.read_bytes()
    log_path.write_bytes(raw[: sizes[1]] + raw[sizes[0] : sizes[1]])
    with caplog.at_level(logging.WARNING, logger="repro.service.recovery"):
        restored = restore_tenant(tmp_path, "t")
    assert [j.job_id for j in restored.completed_jobs] == [1, 2]
    assert log_path.stat().st_size == sizes[1]
    assert caplog.records == []


def test_listing_sees_a_tenant_once_its_log_holds_a_save(tmp_path):
    engine = TenantEngine("t", fcfs_backfill(), cluster_config=small_cluster(4))
    SnapshotWriter(tmp_path / "t").close()
    assert (tmp_path / "t" / LOG_NAME).exists()
    assert list_tenants(tmp_path) == []  # an empty log restores nothing
    assert latest_tenant_snapshot(tmp_path, "t") is None
    engine.handle(_arrival(1, now=1.0, runtime=5.0))
    engine.handle(DecisionRequest(tenant="t", now=50.0))
    with faults_suppressed():
        assert snapshot_tenant(engine, tmp_path) == tmp_path / "t" / LOG_NAME
    assert list_tenants(tmp_path) == ["t"]
    assert [p.name for p in sorted((tmp_path / "t").iterdir())] == [LOG_NAME]


# ----------------------------------------------------------------------
# A tenant that starts fresh starts a fresh directory
# ----------------------------------------------------------------------
@pytest.mark.fault_sensitive
def test_a_tenant_that_starts_fresh_drops_the_earlier_life(tmp_path):
    """A record of one life must never be completed from the jobs of
    another: not resuming empties the log."""
    _three_saves(tmp_path)

    async def second_life():
        service = DecisionService(
            lambda tenant_id: fcfs_backfill(),
            config=ServiceConfig(snapshot_root=tmp_path, snapshot_every_decisions=1),
            cluster_config=small_cluster(4),
        )
        engine = service.register_tenant("t", resume=False)
        assert engine.decision_count == 0
        assert (tmp_path / "t" / LOG_NAME).stat().st_size == 0
        await service.submit(_arrival(7, now=5.0, runtime=1.0))
        await service.submit(_arrival(8, now=9.0, runtime=1.0))
        service._require("t").writer.close()  # no service.close(): the crash
        return engine

    engine = asyncio.run(second_life())
    restored = restore_tenant(tmp_path, "t")
    _assert_same_tenant(restored, engine)
    assert [j.job_id for j in restored.completed_jobs] == [7]


def test_an_unusable_snapshot_root_refuses_the_tenant(tmp_path):
    not_a_directory = tmp_path / "root"
    not_a_directory.write_text("a file where the snapshot root should be")
    service = DecisionService(
        lambda tenant_id: fcfs_backfill(),
        config=ServiceConfig(snapshot_root=not_a_directory),
        cluster_config=small_cluster(4),
    )
    with pytest.raises(AdmissionError, match="snapshot directory unusable"):
        service.register_tenant("t")
    with pytest.raises(AdmissionError, match="unknown tenant"):
        service.tenant("t")


def test_a_writer_refuses_a_log_that_is_ahead_of_the_engine(tmp_path):
    _three_saves(tmp_path)
    stranger = TenantEngine("t", fcfs_backfill(), cluster_config=small_cluster(4))
    with pytest.raises(ValueError, match="not this engine's directory"):
        snapshot_tenant(stranger, tmp_path)
