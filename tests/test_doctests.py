"""Keep the documentation honest.

Runs the doctests embedded in docstrings — if an API drifts, its inline
example fails here — and checks that every ``repro.*`` dotted name and
every ``src/``, ``tests/`` or ``benchmarks/`` path the prose documents
name still imports or exists, so a rename fails a test instead of a
reader.
"""

import doctest
import pathlib
import pkgutil
import re

import pytest

import repro.util.timeunits

MODULES_WITH_DOCTESTS = [
    repro.util.timeunits,
]


@pytest.mark.parametrize(
    "module", MODULES_WITH_DOCTESTS, ids=lambda m: m.__name__
)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} lost its doctests"
    assert results.failed == 0


def test_readme_quickstart_runs():
    """The README's quickstart snippet must execute as written."""
    from repro import fcfs_backfill, generate_month, make_policy, simulate

    workload = generate_month("2003-07", seed=1, scale=0.02)
    dds = make_policy("dds", "lxf", node_limit=50)
    run = simulate(workload, dds)
    assert run.metrics.avg_wait_hours >= 0
    baseline = simulate(workload, fcfs_backfill())
    assert baseline.metrics.n_jobs == run.metrics.n_jobs


ROOT = pathlib.Path(__file__).resolve().parent.parent
PROSE = [ROOT / "README.md", ROOT / "DESIGN.md", *sorted((ROOT / "docs").glob("*.md"))]
_DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
_PATH = re.compile(r"\b(?:src|tests|benchmarks)/[\w./*-]+")
_KNOB = re.compile(r"\bREPRO_[A-Z_]+")
#: Every ``REPRO_*`` name some program source mentions (reads, in practice).
KNOBS_IN_CODE = {
    knob
    for top in ("src", "benchmarks")
    for source in sorted((ROOT / top).rglob("*.py"))
    for knob in _KNOB.findall(source.read_text(encoding="utf-8"))
}


def _resolves(dotted: str) -> bool:
    """``dotted`` is a module, or attributes reachable from its longest
    importable prefix (``repro.core.search.DiscrepancySearch``)."""
    try:
        pkgutil.resolve_name(dotted)
    except (ImportError, AttributeError):
        return False
    return True


@pytest.mark.parametrize("doc", PROSE, ids=lambda p: p.name)
def test_docs_name_only_modules_and_paths_that_exist(doc):
    text = doc.read_text(encoding="utf-8")
    stale = [name for name in sorted(set(_DOTTED.findall(text))) if not _resolves(name)]
    for path in sorted(set(_PATH.findall(text))):
        path = path.rstrip(".,:;")  # sentence punctuation; globs allowed
        if not list(ROOT.glob(path)):
            stale.append(path)
    stale += sorted(set(_KNOB.findall(text)) - KNOBS_IN_CODE)
    assert not stale, f"{doc.name} names things that are gone: {stale}"
