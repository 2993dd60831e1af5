"""The tenant log's crash consistency and I/O shape (``repro.service.recovery``).

One append-only log per tenant; a save appends one checksummed frame (the
jobs finished since the previous save, then the live record) and calls
``fsync`` once.  Held here:

- cut the log at any byte, flip any one byte of what is kept: restore is
  exactly the newest save whose frame lies wholly in the intact prefix,
  or nothing when no frame survives — and a second restore reads the same;
- a save is one write and one ``fsync``, and leaves the directory's
  listing alone: no temporary file, rename or second file;
- a directory in the two-file layout that came before is refused, never
  started over.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backfill import fcfs_backfill
from repro.service.api import DecisionRequest, JobSpec
from repro.service.recovery import (
    LOG_NAME,
    OldLayout,
    SnapshotWriter,
    latest_tenant_snapshot,
)
from repro.service.service import AdmissionError, DecisionService, ServiceConfig
from repro.service.tenant import TenantEngine
from repro.util.faults import FaultPlan, faults_suppressed, injected_faults
from tests.conftest import small_cluster

TORN = FaultPlan.parse("seed=1,service.snapshot=1.0")


def _state(engine):
    """What a restore must reproduce: the finished jobs in completion
    order, and the live record byte for byte."""
    finished = [(j.job_id, j.start_time, j.end_time) for j in engine.completed_jobs]
    return finished, pickle.dumps(engine.snapshot_record(), pickle.HIGHEST_PROTOCOL)


# A step: a request (seconds since the last one, and maybe an arrival of
# that many nodes for that long), a save, or a save torn half-way.
_request = st.tuples(
    st.just("request"),
    st.integers(1, 40),
    st.one_of(st.none(), st.tuples(st.integers(1, 4), st.integers(1, 60))),
)
_steps = st.lists(
    st.one_of(_request, st.just(("save",)), st.just(("torn",))),
    min_size=1,
    max_size=24,
)


# ----------------------------------------------------------------------
# (1) generative crash consistency
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(steps=_steps, data=st.data())
def test_restore_is_the_newest_save_wholly_in_the_intact_prefix(steps, data):
    engine = TenantEngine("t", fcfs_backfill(), cluster_config=small_cluster(4))
    saves = []  # (log size after the save, state at the save), in log order
    now, job_id = 0.0, 0
    with tempfile.TemporaryDirectory() as root, faults_suppressed():
        writer = SnapshotWriter(Path(root) / "t")
        for step in steps:
            if step[0] == "request":
                _, gap, arrival = step
                now += gap
                arrivals = ()
                if arrival is not None:
                    job_id += 1
                    nodes, runtime = arrival
                    arrivals = (JobSpec(job_id=job_id, nodes=nodes, runtime=runtime),)
                engine.handle(DecisionRequest(tenant="t", now=now, arrivals=arrivals))
            elif step[0] == "save":
                writer.save(engine)
                saves.append((writer.offset, _state(engine)))
            else:
                with injected_faults(TORN), pytest.raises(OSError, match="short write"):
                    writer.save(engine)
        writer.close()

        log_path = Path(root) / "t" / LOG_NAME
        raw = bytearray(log_path.read_bytes())
        # Anywhere, or within a few bytes of where a frame ends (the cuts
        # that decide between two saves).
        ends = [0, len(raw)] + [size for size, _ in saves]
        near_an_end = st.builds(
            lambda at, delta: min(max(at + delta, 0), len(raw)),
            st.sampled_from(ends),
            st.integers(-80, 80),
        )
        cut = data.draw(st.one_of(st.integers(0, len(raw)), near_an_end), label="cut")
        del raw[cut:]
        flip = None
        if cut and data.draw(st.booleans(), label="flip"):
            flip = data.draw(st.integers(0, cut - 1), label="at")
            raw[flip] ^= data.draw(st.integers(1, 255), label="mask")
        log_path.write_bytes(bytes(raw))

        # Frames are contiguous from byte 0: one survives when it ends
        # within the cut and before the flipped byte.
        survivors = [
            (size, state)
            for size, state in saves
            if size <= cut and (flip is None or flip >= size)
        ]
        for _ in range(2):  # a second restore with no save between reads the same
            restored = latest_tenant_snapshot(root, "t")
            if not survivors:
                assert restored is None
                assert log_path.stat().st_size == cut  # left as found
                continue
            size, state = survivors[-1]
            assert _state(restored) == state
            assert log_path.stat().st_size == size


# ----------------------------------------------------------------------
# (2) the I/O shape of a save
# ----------------------------------------------------------------------
class _CountedWrites:
    def __init__(self, file):
        self.file = file
        self.writes = 0

    def write(self, data):
        self.writes += 1
        return self.file.write(data)

    def __getattr__(self, name):
        return getattr(self.file, name)


def test_a_save_is_one_write_and_one_fsync_and_no_new_file(tmp_path, monkeypatch):
    fsyncs = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd))[1])
    directory = tmp_path / "t"

    async def life():
        service = DecisionService(
            lambda tenant_id: fcfs_backfill(),
            config=ServiceConfig(snapshot_root=tmp_path, snapshot_every_decisions=1),
            cluster_config=small_cluster(4),
        )
        service.register_tenant("t")
        writer = service._require("t").writer
        counted = writer._file = _CountedWrites(writer._file)
        listing = sorted(os.listdir(directory))
        assert listing == [LOG_NAME]
        saved = []
        for i in range(1, 9):
            before = (len(fsyncs), counted.writes, service.stats["snapshots"])
            await service.submit(
                DecisionRequest(
                    tenant="t", now=10.0 * i,
                    arrivals=(JobSpec(job_id=i, nodes=1 + i % 4, runtime=15.0),),
                )
            )
            after = (len(fsyncs), counted.writes, service.stats["snapshots"])
            assert after == (before[0] + 1, before[1] + 1, before[2] + 1)
            assert sorted(os.listdir(directory)) == listing
            saved.append(len(service.tenant("t").completed_jobs))
        await service.close(final_snapshot=False)
        return saved

    with faults_suppressed():  # the subject is the shape of a whole save
        saved = asyncio.run(life())
    assert saved[-1] > 0  # some saves carried finished jobs, not just records


# ----------------------------------------------------------------------
# (3) the two-file layout is refused, not started over
# ----------------------------------------------------------------------
OLD_SNAPSHOT = "snap-000000000064.pkl"
OLD_LOG = b"FJL1" + bytes(52) + b"old frames"


@pytest.mark.parametrize("resume", [True, False], ids=["resume", "fresh"])
@pytest.mark.parametrize(
    "files",
    [
        pytest.param({OLD_SNAPSHOT: b"REPRO-CKPT-1\n..."}, id="snapshot-only"),
        pytest.param({LOG_NAME: OLD_LOG}, id="old-log-only"),
        pytest.param(
            {OLD_SNAPSHOT: b"REPRO-CKPT-1\n...", LOG_NAME: OLD_LOG}, id="both"
        ),
    ],
)
def test_a_directory_in_the_two_file_layout_is_refused(tmp_path, files, resume):
    directory = tmp_path / "t"
    directory.mkdir()
    for name, content in files.items():
        (directory / name).write_bytes(content)
    service = DecisionService(
        lambda tenant_id: fcfs_backfill(),
        config=ServiceConfig(snapshot_root=tmp_path),
        cluster_config=small_cluster(4),
    )
    with pytest.raises(AdmissionError, match="two-file snapshot layout"):
        service.register_tenant("t", resume=resume)
    with pytest.raises(AdmissionError, match="unknown tenant"):
        service.tenant("t")
    with pytest.raises(OldLayout):
        latest_tenant_snapshot(tmp_path, "t")
    # Nothing was emptied, nothing was added.
    assert {p.name: p.read_bytes() for p in sorted(directory.iterdir())} == files
