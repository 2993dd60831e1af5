"""Crash recovery of tenant state: a bounded live snapshot plus an
append-only log of finished jobs.

A service crash must not cost a tenant its schedule, and keeping that
promise must not cost more the longer the tenant lives.  So what is
persisted is split by how it changes:

- the **live snapshot** — :meth:`~repro.service.tenant.TenantEngine
  .snapshot_record`: queue, running set, event queue, policy, watermark,
  and a *count* of the finished jobs — is rewritten whole at every save,
  in a checksummed envelope (:func:`dump_snapshot`: magic, sha256, one
  pickle blob so object aliasing survives), atomically, and rotated.  Its
  size follows the live state, not the tenant's age;
- the **finished-job log** — one file per tenant that only grows: each
  save appends the jobs finished since the previous save as one frame
  that carries the index of its first job and its own sha256.

A save writes in this order: the frame is appended and made durable
(``fsync``), *then* the snapshot that counts its jobs is published
(temporary file, ``fsync``, rename, directory ``fsync``), then older
snapshots are rotated out.  A crash between any two steps therefore
leaves a log that holds *at least* what every published snapshot counts.

Recovery (:func:`latest_tenant_snapshot`) reads the intact prefix of the
log, scans the snapshots newest-first, skips anything torn, rotted,
wrong-shaped or counting more finished jobs than the prefix holds, and
restores the first one left: its live state plus the first
``completed_count`` jobs of the log, in log order (the order the engine
finished them in — the metrics sum floats in that order).  It then cuts
the log back to that count and deletes the newer snapshot files it
skipped, so nothing from a future that did not survive can be counted
against ``keep`` or appended after.  The injected-fault site
``service.snapshot`` corrupts the persisted bytes of one snapshot — the
chaos suite uses it to prove the fallback actually engages.

Layout: ``<root>/<tenant_id>/snap-<decision_count>.pkl`` and
``<root>/<tenant_id>/finished.log``.  Tenant ids double as directory
names, so the service only admits ids matching :data:`TENANT_ID_PATTERN`.
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
from typing import Any

from repro.service.tenant import TenantEngine
from repro.simulator.job import Job
from repro.util import faults
from repro.util.atomio import atomic_write_bytes, fsync_directory

log = logging.getLogger("repro.service.recovery")

#: Format tag of a snapshot file; bump the suffix when the blob layout
#: changes.  The tenant format inherited it from the retired batch
#: checkpoints, so every snapshot written so far carries it.
MAGIC = b"REPRO-CKPT-1\n"

#: Tenant ids become directory names; keep them filesystem-safe.
TENANT_ID_PATTERN = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

#: Filename pattern of tenant snapshots (decision count, sorts in order).
SNAPSHOT_GLOB = "snap-*.pkl"

#: The finished-job log of a tenant directory (not a :data:`SNAPSHOT_GLOB` match).
LOG_NAME = "finished.log"

#: A log frame is this header, the sha256 of header + payload, then the
#: payload (one pickled ``list[Job]``).  Header: magic, index of the
#: frame's first job in the tenant's completion order, jobs, payload bytes.
_FRAME_HEADER = struct.Struct(">4sQII")
_FRAME_MAGIC = b"FJL1"
_DIGEST_SIZE = hashlib.sha256().digest_size


def valid_tenant_id(tenant_id: str) -> bool:
    return TENANT_ID_PATTERN.match(tenant_id) is not None


def tenant_directory(root: str | Path, tenant_id: str) -> Path:
    if not valid_tenant_id(tenant_id):
        raise ValueError(f"tenant id {tenant_id!r} is not filesystem-safe")
    return Path(root) / tenant_id


class CorruptCheckpoint(ValueError):
    """A snapshot or log frame failed magic/checksum/structure validation."""


# ----------------------------------------------------------------------
# The snapshot envelope: ``MAGIC + sha256(blob) + "\n" + blob``
# ----------------------------------------------------------------------
def dump_snapshot(record: dict[str, Any]) -> bytes:
    """Serialize ``record`` into the checksummed on-disk envelope."""
    blob = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(blob).hexdigest().encode("ascii")
    return MAGIC + digest + b"\n" + blob


def parse_snapshot(raw: bytes, origin: str = "snapshot") -> dict[str, Any]:
    """Validate the envelope and unpickle its record.

    Raises :class:`CorruptCheckpoint` on bad magic, a checksum mismatch
    (torn write, disk rot, injected corruption) or an unpicklable blob —
    callers treat any of those as "this snapshot does not exist" and fall
    back to an older one.
    """
    if not raw.startswith(MAGIC):
        raise CorruptCheckpoint(f"{origin}: bad magic (not a repro checkpoint)")
    header, sep, blob = raw[len(MAGIC) :].partition(b"\n")
    if not sep or len(header) != 64:
        raise CorruptCheckpoint(f"{origin}: malformed checksum header")
    if hashlib.sha256(blob).hexdigest().encode("ascii") != header:
        raise CorruptCheckpoint(f"{origin}: checksum mismatch (torn write?)")
    try:
        record = pickle.loads(blob)
    except Exception as exc:
        raise CorruptCheckpoint(f"{origin}: unpicklable blob ({exc})") from None
    if not isinstance(record, dict):
        raise CorruptCheckpoint(f"{origin}: blob is not a snapshot record")
    return record


# ----------------------------------------------------------------------
# The finished-job log
# ----------------------------------------------------------------------
def _encode_frame(first: int, jobs: list[Job]) -> bytes:
    payload = pickle.dumps(jobs, protocol=pickle.HIGHEST_PROTOCOL)
    header = _FRAME_HEADER.pack(_FRAME_MAGIC, first, len(jobs), len(payload))
    return header + hashlib.sha256(header + payload).digest() + payload


def _intact_frames(raw: bytes) -> list[tuple[int, int, bytes]]:
    """The intact prefix of a log, frame by frame: ``(jobs through this
    frame, offset just past it, its pickled jobs)``.

    The prefix ends at the first frame that is cut short, fails its
    checksum or does not start at the job the previous one ended on —
    whatever follows (a torn append, bytes an overwritten append left
    behind) is not part of the log.
    """
    frames: list[tuple[int, int, bytes]] = []
    count = offset = 0
    while len(raw) - offset >= _FRAME_HEADER.size + _DIGEST_SIZE:
        magic, first, jobs, size = _FRAME_HEADER.unpack_from(raw, offset)
        body = offset + _FRAME_HEADER.size + _DIGEST_SIZE
        header = raw[offset : offset + _FRAME_HEADER.size]
        payload = raw[body : body + size]
        if (
            magic != _FRAME_MAGIC
            or first != count
            or len(payload) != size
            or hashlib.sha256(header + payload).digest()
            != raw[offset + _FRAME_HEADER.size : body]
        ):
            break
        count += jobs
        offset = body + size
        frames.append((count, offset, payload))
    return frames


def _decode_jobs(
    frames: list[tuple[int, int, bytes]], count: int, origin: str
) -> list[Job]:
    """The first ``count`` jobs of the log (``count`` is a frame boundary)."""
    finished: list[Job] = []
    for through, _, payload in frames:
        if through > count:
            break
        try:
            finished.extend(pickle.loads(payload))
        except Exception as exc:  # checksum-valid yet unloadable: another version's
            raise CorruptCheckpoint(
                f"{origin}: unpicklable frame ending at job {through} ({exc})"
            ) from None
    return finished


class SnapshotWriter:
    """The write side of one tenant directory.

    What the log holds is a fact about the directory, not about the
    engine, so it lives here: how many finished jobs the log's intact
    prefix holds (:attr:`count`), where that prefix ends (:attr:`offset`)
    and the open file.  Opening scans the log once; a save after that does
    no work proportional to the tenant's history.

    ``fresh=True`` is for a tenant that starts from nothing over a
    directory that may hold an earlier life: it removes that life's
    snapshots and empties its log, because a snapshot of one life must
    never be completed from the log of another.
    """

    def __init__(self, directory: Path, fresh: bool = False) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        self.directory = directory
        if fresh:
            for stale in sorted(directory.glob(SNAPSHOT_GLOB)):
                stale.unlink(missing_ok=True)
        path = directory / LOG_NAME
        created = not path.exists()
        # Unbuffered: a failed write must leave nothing behind in a
        # buffer for the next append to flush at the wrong place.
        self._file = open(path, "w+b" if fresh or created else "r+b", buffering=0)
        if created:  # the log's directory entry must outlive a crash too
            fsync_directory(directory)
        frames = _intact_frames(self._file.read())
        self.count, self.offset = frames[-1][:2] if frames else (0, 0)

    def close(self) -> None:
        self._file.close()

    def save(self, engine: TenantEngine, keep: int = 2) -> Path:
        """Persist one snapshot of ``engine``; returns the snapshot's path.

        The ``service.snapshot`` fault site corrupts the snapshot's bytes
        *after* checksumming (a truncated write), so the file exists but
        fails validation on load — exactly the torn-write shape recovery
        must survive.
        """
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        finished = engine.completed_jobs
        if self.count > len(finished):
            raise ValueError(
                f"{self.directory / LOG_NAME} holds {self.count} finished jobs, "
                f"tenant {engine.tenant_id} has finished {len(finished)}: "
                "not this engine's directory"
            )
        if self.count < len(finished):
            self._append(finished[self.count :])
        raw = dump_snapshot(engine.snapshot_record())
        if faults.should_fire("service.snapshot"):
            raw = raw[: max(1, len(raw) // 2)]
        path = self.directory / f"snap-{engine.decision_count:012d}.pkl"
        atomic_write_bytes(path, raw)
        for old in sorted(self.directory.glob(SNAPSHOT_GLOB))[:-keep]:
            old.unlink(missing_ok=True)
        return path

    def _append(self, jobs: list[Job]) -> None:
        """One durable frame at the last known-good offset.

        :attr:`count` and :attr:`offset` move only once the frame is on
        disk, so an append that fails part-way does not poison the next
        one: it starts at the same offset and carries the same jobs and
        more, overwriting the torn bytes.
        """
        frame = _encode_frame(self.count, jobs)
        self._file.seek(self.offset)
        written = self._file.write(frame)
        if written != len(frame):
            raise OSError(
                f"short write to {self.directory / LOG_NAME}: "
                f"{written} of {len(frame)} bytes"
            )
        os.fsync(self._file.fileno())
        self.count += len(jobs)
        self.offset += len(frame)


def snapshot_tenant(
    engine: TenantEngine, root: str | Path, keep: int = 2
) -> Path:
    """:meth:`SnapshotWriter.save` for a caller that keeps no writer: opens
    one on the tenant's directory (one scan of its log), saves, closes."""
    directory = tenant_directory(root, engine.tenant_id)
    with closing(SnapshotWriter(directory)) as writer:
        return writer.save(engine, keep)


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------
def latest_tenant_snapshot(
    root: str | Path, tenant_id: str
) -> TenantEngine | None:
    """Restore the newest *usable* snapshot of ``tenant_id``, if any.

    Usable means it loads and the intact prefix of the finished-job log
    covers the jobs it counts.  Anything else is skipped with a logged
    warning; once a snapshot is restored, the log is cut back to it and
    the skipped (newer) files are deleted.  ``None`` means no usable
    snapshot exists (fresh tenant) and leaves the directory as found.
    """
    directory = tenant_directory(root, tenant_id)
    if not directory.is_dir():
        return None
    log_path = directory / LOG_NAME
    try:
        raw = log_path.read_bytes()
    except FileNotFoundError:
        raw = b""
    frames = _intact_frames(raw)
    #: jobs held at each frame boundary -> the byte offset of that boundary.
    boundaries = {0: 0, **{count: offset for count, offset, _ in frames}}
    skipped: list[Path] = []
    for path in sorted(directory.glob(SNAPSHOT_GLOB), reverse=True):
        try:
            record = parse_snapshot(path.read_bytes(), origin=str(path))
            count = record["completed_count"]
            if count not in boundaries:
                raise CorruptCheckpoint(
                    f"{path}: counts {count} finished jobs, the log's intact "
                    f"prefix holds {max(boundaries)}"
                )
            engine = TenantEngine.from_snapshot_record(
                record, _decode_jobs(frames, count, origin=str(log_path))
            )
        except (OSError, CorruptCheckpoint, TypeError, KeyError) as exc:
            log.warning("skipping unusable tenant snapshot: %s", exc)
            skipped.append(path)
            continue
        if len(raw) > boundaries[count]:
            os.truncate(log_path, boundaries[count])
        for unusable in skipped:
            unusable.unlink(missing_ok=True)
        return engine
    return None


def restore_tenant(root: str | Path, tenant_id: str) -> TenantEngine:
    """Like :func:`latest_tenant_snapshot` but a missing snapshot is an error."""
    engine = latest_tenant_snapshot(root, tenant_id)
    if engine is None:
        raise FileNotFoundError(
            f"no usable snapshot for tenant {tenant_id!r} under {root}"
        )
    return engine


def list_tenants(root: str | Path) -> list[str]:
    """Tenant ids with at least one snapshot file under ``root`` (sorted)."""
    base = Path(root)
    if not base.is_dir():
        return []
    found = []
    for child in sorted(base.iterdir()):
        if child.is_dir() and sorted(child.glob(SNAPSHOT_GLOB)):
            found.append(child.name)
    return found
