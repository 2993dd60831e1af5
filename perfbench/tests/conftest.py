"""The benchmark's self-tests: ``python -m pytest perfbench/tests -q``.

Not part of the repo's tier-1 ``testpaths``.  Importing ``perfbench``
needs the repo root on ``sys.path`` and ``repro`` needs ``src/`` and the
built kernel, which :func:`perfbench.build.build_program` provides.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.build import build_program  # noqa: E402

build_program()
