"""What the benchmark does about the machine it runs on.

The reference box is a 2-vCPU microVM on a shared host, and two of its
habits drown a 10% change in the program (numbers in ``README.md``,
"Measured spread"):

- **Its speed changes.**  The same compiled search runs at 250 or at 500
  decisions/s from one pass to the next, for seconds or for minutes.
  :class:`HostProbe` measures that speed *inside* each pass — a fixed
  loop run in a fixed share of the pass's wall time, spread evenly over
  it — and every reported time is scaled to the speed
  :data:`REFERENCE_UNITS_PER_S`, i.e. stated in seconds of a host that
  runs the loop that fast.  The probe knows nothing about ``repro``, so a
  slower program reads slower by the same factor with or without it.
- **Its vCPUs fall asleep.**  A halted vCPU takes the host 50-200 us to
  wake, or far longer when the host is busy, and a service request
  crosses threads (so, usually, vCPUs) twice.  :func:`keep_awake` runs one
  idle-priority spinner per CPU for the length of a service run — the
  user-space form of booting with ``idle=poll`` — so a wake-up costs a
  context switch and nothing else.  The spinners only get cycles nobody
  else wants.  A batch replay never sleeps, and runs without them.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import time
from typing import Iterator

#: Probe units per probe second on the reference box when its host is
#: quiet.  Only fixes the scale of the corrected times (so they read like
#: the wall times of a quiet hour); comparisons never depend on it.
REFERENCE_UNITS_PER_S = 230_000.0
#: Share of a pass's wall time the probe takes.
PROBE_SHARE = 0.05

_SPINNER = """
import os
parent = int(os.environ["PERFBENCH_PARENT"])
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    os.nice(19)
while os.getppid() == parent:  # an orphan stops by itself
    for _ in range(1_000_000):
        pass
"""


@contextlib.contextmanager
def keep_awake() -> Iterator[None]:
    """One idle-priority spinner per usable CPU until the block ends."""
    env = {**os.environ, "PERFBENCH_PARENT": str(os.getpid())}
    spinners = [
        subprocess.Popen([sys.executable, "-S", "-c", _SPINNER], env=env)
        for _ in os.sched_getaffinity(0)
    ]
    try:
        yield
    finally:
        for spinner in spinners:
            spinner.kill()
        for spinner in spinners:
            spinner.wait()


def _unit() -> int:
    total = 0
    for i in range(200):
        total += i
    return total


class HostProbe:
    """How fast the host ran a fixed loop while a pass was on the clock.

    ``start``/``stop`` bracket the timed sections of the pass;
    ``sample()``, called between operations, runs probe units until the
    probe has had :data:`PROBE_SHARE` of the time on the clock so far.
    The pass's own time is its wall time minus :attr:`seconds`.
    """

    def __init__(self) -> None:
        self.units = 0
        #: Seconds the probe units took.
        self.seconds = 0.0
        self._on_clock = 0.0
        self._mark = 0.0

    def start(self) -> None:
        self._mark = time.perf_counter()

    def stop(self) -> None:
        self._on_clock += time.perf_counter() - self._mark

    def sample(self) -> None:
        clock = time.perf_counter
        t0 = clock()
        due = PROBE_SHARE * (self._on_clock + t0 - self._mark)
        while self.seconds < due:
            _unit()
            t1 = clock()
            self.seconds += t1 - t0
            self.units += 1
            t0 = t1

    @property
    def speed(self) -> float:
        """Host speed during the pass as a share of the reference speed."""
        return self.units / self.seconds / REFERENCE_UNITS_PER_S
