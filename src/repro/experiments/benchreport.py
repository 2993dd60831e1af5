"""The one report type behind the committed ``BENCH_*.json`` files.

``repro bench`` (:mod:`repro.experiments.bench`, kernel nodes/sec against
the reference engine) and ``repro optgap``
(:mod:`repro.experiments.optgap`, distance to the provable optimum) each
measure something ``perfbench`` — the repo's end-to-end benchmark — does
not, and each commits a report a later run is judged against.  What the
two share lives here and nowhere else: the honesty header, the refusal
to compare against a committed report of another schema, the tolerance
block, ``check(fresh, committed)`` and the atomic write.  A benchmark
module supplies only its row function, the band it commits and the
comparison of two bodies; the CLI drives both through this one type.
"""

from __future__ import annotations

import platform
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.core.ckernel import have_compiled
from repro.util.atomio import atomic_write_json

Report = dict[str, Any]


@dataclass(frozen=True)
class BenchReport:
    """One kind of committed report: a schema plus three functions.

    ``measure(quick=..., progress=..., **params)`` returns the body (the
    rows and the parameters that produced them) and raises ``ValueError``
    on a parameter it cannot run with; ``tolerance(body)`` is the band
    committed next to it; ``compare(fresh, committed, tolerance)`` lists
    how a fresh report falls outside the committed one's band;
    ``headline(report)`` is the one-line summary printed after a write.
    """

    schema: str
    benchmark: str
    measure: Callable[..., Report]
    tolerance: Callable[[Report], dict[str, float]]
    compare: Callable[[Report, Report, dict[str, float]], list[str]]
    headline: Callable[[Report], str]

    def run(
        self,
        quick: bool = False,
        progress: Callable[[str], None] | None = None,
        **params: Any,
    ) -> Report:
        """Measure and wrap the body in the header and tolerance block."""
        body = self.measure(quick=quick, progress=progress, **params)
        return {
            "schema": self.schema,
            "benchmark": self.benchmark,
            "quick": quick,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            # Whether the C kernel was importable when this was measured:
            # a pure-python report is never mistaken for a compiled one.
            "compiled_available": have_compiled(),
            **body,
            "tolerance": self.tolerance(body),
        }

    def check(self, fresh: Report, committed: Report) -> list[str]:
        """Human-readable failures of ``fresh`` against ``committed``'s
        tolerance block (empty == within tolerance).  A committed report
        of another schema is refused, never half-compared."""
        if committed.get("schema") != self.schema:
            return [
                f"committed report is {committed.get('schema')!r}, this build "
                f"writes {self.schema!r}: regenerate it"
            ]
        return self.compare(fresh, committed, committed["tolerance"])

    @staticmethod
    def write(path: str | Path, report: Report) -> None:
        """Atomic: a crash mid-write must not leave a torn report that
        downstream tooling would try to parse."""
        atomic_write_json(Path(path), report, indent=2, sort_keys=True)
