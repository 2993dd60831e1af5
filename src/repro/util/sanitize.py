"""Opt-in debug-mode simulation sanitizer.

When enabled (``REPRO_SANITIZE=1`` in the environment, the CLI's global
``--sanitize`` flag, or :func:`set_sanitize` from code), the simulator core
runs extra invariant checks at every state transition:

- free-node counts stay within ``[0, capacity]`` and node accounting is
  conserved (``free + running == capacity``) — :mod:`repro.simulator.cluster`
  and :mod:`repro.simulator.engine`;
- event times are monotone non-decreasing across the run —
  :mod:`repro.simulator.engine`;
- the queue never contains started jobs — :mod:`repro.simulator.engine`;
- profile reservations conserve node-seconds (measured over the
  reservation's own window, so the tolerance is relative to its area) and
  never corrupt the step function — :mod:`repro.core.profile`;
- search decisions only start jobs that fit the free nodes *now* —
  :mod:`repro.core.scheduler`.

The checks are strictly read-only: a sanitized run produces byte-identical
metrics to an unsanitized one (asserted by ``tests/test_sanitizer.py``).
Violations raise :class:`InvariantViolation` with a message naming the
broken invariant and the offending values.

The enabled-state is cached after the first environment read (the hot
paths consult it millions of times per search); use :func:`set_sanitize`
— not ``os.environ`` — to flip it mid-process.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

_TRUTHY = {"1", "true", "yes", "on"}

#: Tri-state: ``None`` means "defer to the REPRO_SANITIZE env var".
_override: bool | None = None
#: Cached env-var reading; invalidated by :func:`set_sanitize`.
_env_cache: bool | None = None


class InvariantViolation(AssertionError):
    """A simulation-core invariant was broken (only raised when sanitizing)."""


def sanitize_enabled() -> bool:
    """Whether debug-mode invariant checking is active."""
    global _env_cache
    if _override is not None:
        return _override
    if _env_cache is None:
        _env_cache = (
            os.environ.get("REPRO_SANITIZE", "").strip().lower() in _TRUTHY
        )
    return _env_cache


def set_sanitize(value: bool | None) -> None:
    """Force sanitizing on/off, or ``None`` to re-read ``REPRO_SANITIZE``."""
    global _override, _env_cache
    _override = value
    _env_cache = None


@contextmanager
def sanitized(value: bool = True) -> Iterator[None]:
    """Context manager scoping a :func:`set_sanitize` override (for tests)."""
    previous = _override
    set_sanitize(value)
    try:
        yield
    finally:
        set_sanitize(previous)


def require(condition: bool, message: str) -> None:
    """Raise :class:`InvariantViolation` with ``message`` unless ``condition``.

    Callers must guard the call site with :func:`sanitize_enabled` when the
    message is expensive to build; ``require`` itself assumes the decision
    to check has already been made.
    """
    if not condition:
        raise InvariantViolation(message)
