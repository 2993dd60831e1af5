"""Deterministic random-number streams for workload generation.

Every stochastic component of the library draws from a named
:class:`RngStream` derived from one master seed, so a whole experiment matrix
is reproducible from a single integer, and adding a new consumer of
randomness does not perturb existing streams.
"""

from __future__ import annotations

import hashlib
from typing import Any, Sequence

import numpy as np

#: Shape argument accepted by the draw methods (``None`` = one scalar).
Size = int | tuple[int, ...] | None


def _derive_seed(master_seed: int, name: str) -> int:
    """Derive a child seed from a master seed and a stream name.

    Uses SHA-256 so streams are statistically independent and stable across
    Python versions (``hash()`` is salted per process and unusable here).
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class RngStream:
    """A named, seeded wrapper over :class:`numpy.random.Generator`.

    Parameters
    ----------
    master_seed:
        The experiment-level seed.
    name:
        A stable identifier for this consumer, e.g. ``"arrivals:2003-07"``.
    """

    def __init__(self, master_seed: int, name: str) -> None:
        self.master_seed = int(master_seed)
        self.name = name
        self.generator = np.random.default_rng(_derive_seed(self.master_seed, name))

    def child(self, suffix: str) -> "RngStream":
        """Create a sub-stream with a derived name."""
        return RngStream(self.master_seed, f"{self.name}/{suffix}")

    # Thin pass-throughs for the draws the library needs.  Keeping them
    # explicit (rather than __getattr__) documents the full random surface.
    # Returns are ``Any`` because numpy's draws are scalar-or-array
    # depending on ``size``; callers pin the shape at the call site.

    def uniform(
        self, low: float = 0.0, high: float = 1.0, size: "Size" = None
    ) -> Any:
        return self.generator.uniform(low, high, size)

    def exponential(self, scale: float, size: "Size" = None) -> Any:
        return self.generator.exponential(scale, size)

    def lognormal(self, mean: float, sigma: float, size: "Size" = None) -> Any:
        return self.generator.lognormal(mean, sigma, size)

    def choice(
        self,
        a: "Sequence[Any] | np.ndarray[Any, Any] | int",
        size: "Size" = None,
        p: "Sequence[float] | None" = None,
        replace: bool = True,
    ) -> Any:
        return self.generator.choice(a, size=size, p=p, replace=replace)  # type: ignore[arg-type]

    def integers(self, low: int, high: int, size: "Size" = None) -> Any:
        return self.generator.integers(low, high, size)

    def shuffle(self, x: "np.ndarray[Any, Any] | list[Any]") -> None:
        self.generator.shuffle(x)


def spawn_streams(master_seed: int, names: list[str]) -> dict[str, RngStream]:
    """Create one :class:`RngStream` per name from a single master seed."""
    return {name: RngStream(master_seed, name) for name in names}

