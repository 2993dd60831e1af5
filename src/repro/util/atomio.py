"""Atomic file writes: no reader ever sees a truncated artifact.

Every durable artifact this project rewrites whole — run-cache entries,
``BENCH_search.json``, reproduction reports — is written through this
module so an interrupt (SIGKILL, OOM, power loss) can never leave a
half-written file behind.  (Tenant saves are appended to a log instead;
see :mod:`repro.service.recovery`.)  The recipe is the classic
one:

1. write the full content to a temporary file *in the target directory*
   (same filesystem, so the final rename is atomic);
2. flush and ``fsync`` the temporary file, so the bytes are durable
   before they become visible;
3. ``os.replace`` onto the destination — atomic on POSIX and Windows;
4. best-effort ``fsync`` of the containing directory, so the rename
   itself survives a crash.

Readers therefore observe either the previous complete content or the
new complete content, never a mixture.  Corruption that slips past this
(disk faults, foreign writers) is the run cache's checksum layer's job
(:mod:`repro.experiments.cache`) — the two defenses compose.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any


def fsync_directory(directory: Path) -> None:
    """Best-effort fsync of a directory (durability of renames within it).

    Some platforms and filesystems reject opening directories or syncing
    them; losing *durability* there is acceptable, losing *atomicity* is
    not — and atomicity comes from ``os.replace``, not from this call.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Atomically replace ``path`` with ``data``; returns the path.

    Parent directories are created as needed.  On any failure the
    temporary file is removed and the destination is left untouched.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{target.name}.", suffix=".tmp", dir=target.parent
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fsync_directory(target.parent)
    return target


def atomic_write_text(
    path: str | Path, text: str, encoding: str = "utf-8"
) -> Path:
    """Atomically replace ``path`` with ``text`` (see :func:`atomic_write_bytes`)."""
    return atomic_write_bytes(path, text.encode(encoding))


def atomic_write_json(path: str | Path, obj: Any, **dumps_kwargs: Any) -> Path:
    """Atomically write ``obj`` as JSON with a trailing newline."""
    return atomic_write_text(path, json.dumps(obj, **dumps_kwargs) + "\n")
