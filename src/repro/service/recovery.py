"""Crash recovery of tenant state: one append-only log per tenant.

A service crash must not cost a tenant its schedule, and keeping that
promise must not cost more the longer the tenant lives.  So a save
writes what changed and nothing else, as **one frame** appended to the
tenant's log and made durable with **one** ``fsync``:

- a header — magic, index of the frame's first finished job in the
  tenant's completion order, job count, and the byte lengths of the two
  blobs that follow — then the sha256 of header and payload;
- the payload: the jobs finished since the previous save (one pickled
  ``list[Job]``), then the live record, :meth:`~repro.service.tenant
  .TenantEngine.snapshot_record` — queue, running set, event queue,
  policy, watermark and a *count* of the finished jobs — pickled as one
  unit so object aliasing survives.  Its size follows the live state,
  not the tenant's age.

A record sits after the jobs it counts inside one checksummed frame, so
"the log holds at least what the record counts" holds by construction.

Recovery (:class:`SnapshotWriter` when it opens the log, or
:func:`latest_tenant_snapshot`) reads the log once, finds its intact
prefix — frames that are whole, pass their checksum and start at the job
the previous one ended on — and restores the newest frame in it whose
record rebuilds: that record plus every job in the frames up to and
including it, in log order (the order the engine finished them in — the
metrics sum floats in that order).  Whatever follows that frame is cut
off, so nothing from a future that did not survive is appended after.
The injected-fault site ``service.snapshot`` makes a save's write short:
half the frame reaches the file and the save fails, so the next save
overwrites the torn bytes and a crash before it restores the save
before.

Layout: ``<root>/<tenant_id>/finished.log``.  Tenant ids double as
directory names, so the service only admits ids matching
:data:`TENANT_ID_PATTERN`.  A directory in the earlier two-file layout
(``snap-*.pkl`` snapshots beside an ``FJL1`` log) is refused with
:class:`OldLayout`, never silently started over.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import re
import struct
from contextlib import closing
from pathlib import Path
from typing import Any, NamedTuple

from repro.service.tenant import TenantEngine
from repro.simulator.job import Job
from repro.util import faults
from repro.util.atomio import fsync_directory

log = logging.getLogger("repro.service.recovery")

#: Tenant ids become directory names; keep them filesystem-safe.
TENANT_ID_PATTERN = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

#: The log of a tenant directory, the directory's only file.
LOG_NAME = "finished.log"

#: A frame is this header, the sha256 of header + payload, then the
#: payload (pickled ``list[Job]``, then the pickled live record).
#: Header: magic, index of the frame's first job in the tenant's
#: completion order, jobs, jobs-blob bytes, record-blob bytes.
_FRAME_HEADER = struct.Struct(">4sQIII")
_FRAME_MAGIC = b"TLG1"
_DIGEST_SIZE = hashlib.sha256().digest_size

#: What the two-file layout left in a tenant directory: its snapshots, and
#: the magic its log's frames (jobs only) started with.
_OLD_SNAPSHOTS = "snap-*.pkl"
_OLD_FRAME_MAGIC = b"FJL1"


def valid_tenant_id(tenant_id: str) -> bool:
    return TENANT_ID_PATTERN.match(tenant_id) is not None


def tenant_directory(root: str | Path, tenant_id: str) -> Path:
    if not valid_tenant_id(tenant_id):
        raise ValueError(f"tenant id {tenant_id!r} is not filesystem-safe")
    return Path(root) / tenant_id


class CorruptCheckpoint(ValueError):
    """A checksum-valid blob of a frame does not unpickle."""


class OldLayout(ValueError):
    """A tenant directory written in the two-file layout, which this
    version does not read (and must not overwrite)."""


def _refuse_old_layout(directory: Path) -> None:
    old = next(directory.glob(_OLD_SNAPSHOTS), None)
    try:
        with open(directory / LOG_NAME, "rb") as log_file:
            head = log_file.read(len(_OLD_FRAME_MAGIC))
    except FileNotFoundError:
        head = b""
    if old is not None or head == _OLD_FRAME_MAGIC:
        found = old.name if old is not None else f"{LOG_NAME} starting {head!r}"
        raise OldLayout(
            f"{directory} is in the two-file snapshot layout ({_OLD_SNAPSHOTS} "
            f"beside a log of {_OLD_FRAME_MAGIC.decode()} frames; found {found}), "
            "which this version does not read: move it aside to start over"
        )


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------
def _encode_frame(first: int, jobs: list[Job], record: dict[str, object]) -> bytes:
    jobs_blob = pickle.dumps(jobs, protocol=pickle.HIGHEST_PROTOCOL)
    record_blob = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    header = _FRAME_HEADER.pack(
        _FRAME_MAGIC, first, len(jobs), len(jobs_blob), len(record_blob)
    )
    digest = hashlib.sha256(header)
    digest.update(jobs_blob)
    digest.update(record_blob)
    return b"".join((header, digest.digest(), jobs_blob, record_blob))


class _Frame(NamedTuple):
    count: int  # finished jobs through this frame
    end: int  # byte offset just past it
    jobs: memoryview
    record: memoryview


def _intact_frames(raw: bytes) -> list[_Frame]:
    """The intact prefix of a log, frame by frame.

    The prefix ends at the first frame that is cut short, fails its
    checksum or does not start at the job the previous one ended on —
    whatever follows (a torn save, bytes an overwritten save left
    behind) is not part of the log.
    """
    view = memoryview(raw)
    frames: list[_Frame] = []
    count = offset = 0
    while len(raw) - offset >= _FRAME_HEADER.size + _DIGEST_SIZE:
        magic, first, jobs, jobs_size, record_size = _FRAME_HEADER.unpack_from(
            raw, offset
        )
        body = offset + _FRAME_HEADER.size + _DIGEST_SIZE
        split, end = body + jobs_size, body + jobs_size + record_size
        if magic != _FRAME_MAGIC or first != count or end > len(raw):
            break
        digest = hashlib.sha256(view[offset : offset + _FRAME_HEADER.size])
        digest.update(view[body:end])
        if digest.digest() != raw[offset + _FRAME_HEADER.size : body]:
            break
        count += jobs
        offset = end
        frames.append(_Frame(count, end, view[body:split], view[split:end]))
    return frames


def _load(blob: memoryview, what: str) -> Any:
    try:
        return pickle.loads(blob)
    except Exception as exc:  # checksum-valid yet unloadable: another version's
        raise CorruptCheckpoint(f"{what}: unpicklable blob ({exc})") from None


def _restore(raw: bytes, origin: str) -> tuple[TenantEngine | None, int, int]:
    """The newest frame of the intact prefix whose record rebuilds:
    ``(tenant, finished jobs through it, offset just past it)``, or
    ``(None, 0, 0)`` when there is none.  Frames skipped on the way are
    logged."""
    frames = _intact_frames(raw)
    finished: list[Job] = []
    usable = 0  # frames whose jobs load, and so every job before them
    for frame in frames:
        try:
            finished.extend(_load(frame.jobs, f"{origin}: jobs through {frame.count}"))
        except CorruptCheckpoint as exc:
            log.warning("skipping unusable tenant snapshot: %s", exc)
            break
        usable += 1
    for frame in reversed(frames[:usable]):
        try:
            record = _load(frame.record, f"{origin}: record at job {frame.count}")
            if not isinstance(record, dict):
                raise TypeError("blob is not a snapshot record")
            engine = TenantEngine.from_snapshot_record(
                record, finished[: frame.count]
            )
        except (CorruptCheckpoint, TypeError, KeyError) as exc:
            log.warning("skipping unusable tenant snapshot: %s", exc)
            continue
        return engine, frame.count, frame.end
    return None, 0, 0


# ----------------------------------------------------------------------
# The write side
# ----------------------------------------------------------------------
class SnapshotWriter:
    """The log of one tenant directory, open for saving.

    What the log holds is a fact about the directory, not about the
    engine, so it lives here: how many finished jobs its intact prefix
    holds (:attr:`count`), where that prefix ends (:attr:`offset`) and the
    open file.  Opening reads and checks the log once — with ``resume``
    that one pass is also the restore, whose tenant is :attr:`restored` —
    and cuts the log back to :attr:`offset`; a save after that does no
    work proportional to the tenant's history.

    A tenant that starts from nothing (``resume=False``, or nothing in
    the log restores) empties the log, because a record of one life must
    never be completed from the jobs of another.  A directory in the
    two-file layout raises :class:`OldLayout` before anything is touched.
    """

    def __init__(self, directory: Path, resume: bool = True) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        _refuse_old_layout(directory)
        self.path = directory / LOG_NAME
        created = not self.path.exists()
        # Unbuffered: a failed write must leave nothing behind in a
        # buffer for the next save to flush at the wrong place.
        self._file = open(self.path, "w+b" if created else "r+b", buffering=0)
        try:
            raw = self._file.read()
            if created:  # the log's directory entry must outlive a crash too
                fsync_directory(directory)
            self.restored: TenantEngine | None = None
            self.count = self.offset = 0
            if resume:
                self.restored, self.count, self.offset = _restore(raw, str(self.path))
            if len(raw) > self.offset:
                self._file.truncate(self.offset)
        except BaseException:
            self._file.close()
            raise

    def close(self) -> None:
        self._file.close()

    def save(self, engine: TenantEngine) -> Path:
        """Append one frame for ``engine``; returns the log's path.

        :attr:`count` and :attr:`offset` move only once the frame is on
        disk, so a save that fails part-way does not poison the next one:
        it starts at the same offset and carries the same jobs and more,
        overwriting the torn bytes.  The ``service.snapshot`` fault site
        is such a failure — half the frame is written, then the save
        raises like any other short write.
        """
        finished = engine.completed_jobs
        if self.count > len(finished):
            raise ValueError(
                f"{self.path} holds {self.count} finished jobs, "
                f"tenant {engine.tenant_id} has finished {len(finished)}: "
                "not this engine's directory"
            )
        frame = _encode_frame(
            self.count, finished[self.count :], engine.snapshot_record()
        )
        whole = len(frame)
        if faults.should_fire("service.snapshot"):
            frame = frame[: whole // 2]
        self._file.seek(self.offset)
        written = self._file.write(frame)
        if written != whole:
            raise OSError(f"short write to {self.path}: {written} of {whole} bytes")
        os.fsync(self._file.fileno())
        self.count = len(finished)
        self.offset += whole
        return self.path


def snapshot_tenant(engine: TenantEngine, root: str | Path) -> Path:
    """:meth:`SnapshotWriter.save` for a caller that keeps no writer: opens
    one on the tenant's directory (one pass over its log), saves, closes."""
    directory = tenant_directory(root, engine.tenant_id)
    with closing(SnapshotWriter(directory)) as writer:
        return writer.save(engine)


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------
def latest_tenant_snapshot(
    root: str | Path, tenant_id: str
) -> TenantEngine | None:
    """Restore the newest save of ``tenant_id`` that the log still holds.

    Frames that are torn, rotted or whose record does not rebuild are
    skipped (a logged warning for the latter); once a tenant is restored,
    the log is cut back to its frame.  ``None`` means nothing restores
    (fresh tenant) and leaves the directory as found.  Raises
    :class:`OldLayout` on a directory in the two-file layout.
    """
    directory = tenant_directory(root, tenant_id)
    if not directory.is_dir():
        return None
    _refuse_old_layout(directory)
    path = directory / LOG_NAME
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return None
    engine, _, offset = _restore(raw, str(path))
    if engine is not None and len(raw) > offset:
        os.truncate(path, offset)
    return engine


def restore_tenant(root: str | Path, tenant_id: str) -> TenantEngine:
    """Like :func:`latest_tenant_snapshot` but a missing snapshot is an error."""
    engine = latest_tenant_snapshot(root, tenant_id)
    if engine is None:
        raise FileNotFoundError(
            f"no usable snapshot for tenant {tenant_id!r} under {root}"
        )
    return engine


def list_tenants(root: str | Path) -> list[str]:
    """Tenant ids whose log holds anything under ``root`` (sorted)."""
    base = Path(root)
    if not base.is_dir():
        return []
    return [
        child.name
        for child in sorted(base.iterdir())
        if (child / LOG_NAME).is_file() and (child / LOG_NAME).stat().st_size > 0
    ]
