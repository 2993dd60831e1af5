"""Find the program under test and build its compiled kernel in place.

The benchmark runs from a checkout that holds only committed files, so the
C kernel (``src/repro/core/_ckernel*.so``, git-ignored) has to be built
from source there before ``repro`` is imported.  ``build_ext`` without
``--force`` rebuilds only when ``_ckernel.c`` is newer than the artifact,
which makes the first run of a checkout pay the compile (about 3 s) and
every later run a 0.4 s check.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Everything a run writes besides the kernel build goes here (git-ignored).
OUT = ROOT / "perfbench" / "out"


def build_program() -> float:
    """Build the kernel, put ``src/`` on ``sys.path``; returns build seconds.

    Exits non-zero when there is no program to measure.  ``repro`` is not
    imported here, so the caller can time that import.
    """
    if not (ROOT / "setup.py").is_file() or not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no program to measure under {ROOT} (setup.py, src/repro)")
    t0 = time.perf_counter()
    # The compiler's temporary files stay inside the checkout too.
    tmp = ROOT / "build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "REPRO_PURE_PYTHON"}
    built = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
        cwd=ROOT,
        env={**env, "TMPDIR": str(tmp)},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if built.returncode != 0:
        sys.exit(f"perfbench: kernel build failed\n{built.stdout}")
    seconds = time.perf_counter() - t0
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    # The opt-out would silently turn the compiled workloads pure-python.
    os.environ.pop("REPRO_PURE_PYTHON", None)
    return seconds
