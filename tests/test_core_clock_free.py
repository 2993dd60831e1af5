"""``repro.core`` reads no clock: a search is a function of its inputs.

The engines' one budget is nodes — the paper imposes "a node limit,
rather than a time limit" (§2.2) — so an answer depends on the problem
and the node budget, never on the host.  The service turns its time
slices into node budgets before it calls in.  Every module under
``repro/core/`` is parsed; none may import ``time`` or ``datetime`` or
call ``perf_counter``, ``monotonic`` or ``time``, so a deadline cannot
creep back into the engines unnoticed.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro.core

CORE = Path(repro.core.__file__).parent
CLOCK_MODULES = {"time", "datetime"}
CLOCK_CALLS = {"perf_counter", "monotonic", "time"}


def _clock_reads(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in CLOCK_CALLS:
                found.append((node.lineno, f"calls {name}()"))
            continue
        else:
            continue
        found += [
            (node.lineno, f"imports {name}")
            for name in names
            if name.split(".")[0] in CLOCK_MODULES
        ]
    return found


@pytest.mark.parametrize(
    "path", sorted(CORE.rglob("*.py")), ids=lambda path: path.name
)
def test_core_module_reads_no_clock(path):
    assert _clock_reads(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize(
    "source",
    [
        "import time",
        "import time as _wallclock",
        "from datetime import datetime",
        "from time import perf_counter",
        "x = clock.monotonic()",
        "x = time()",
    ],
)
def test_the_guard_sees_a_clock_read(source):
    assert _clock_reads(ast.parse(source))
