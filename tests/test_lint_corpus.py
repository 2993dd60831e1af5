"""Fixture-corpus driver for the simlint rules.

Each ``tests/lint_corpus/*.py.txt`` file (the extension keeps the walker
from linting the seeded positives as real code) declares the rules it
exercises in a ``# lint-corpus: rules=...`` header and marks every line
that must fire with a trailing ``# expect: SIMxxx`` comment.  The driver
asserts the *exact* finding set — a fixture that stops firing (regression)
or over-fires (false positive) both fail.
"""

import re
from pathlib import Path

import pytest

from repro.lint import RULES_BY_ID, lint_source

CORPUS = Path(__file__).parent / "lint_corpus"

_HEADER_RE = re.compile(r"#\s*lint-corpus:\s*rules=([A-Z0-9,]+)")
_EXPECT_RE = re.compile(r"#\s*expect:\s*([A-Z0-9,]+)")

#: Rules that must have fixture coverage (positives AND negatives).
FLOW_RULES = ("SIM006", "SIM007", "SIM008", "SIM010")


def corpus_files() -> list[Path]:
    files = sorted(CORPUS.glob("*.py.txt"))
    assert files, f"no corpus fixtures under {CORPUS}"
    return files


def parse_fixture(path: Path) -> tuple[set[str], set[tuple[int, str]]]:
    """(target rule ids, expected {(line, rule)}) of one fixture file."""
    text = path.read_text(encoding="utf-8")
    header = _HEADER_RE.search(text)
    assert header, f"{path.name} lacks a '# lint-corpus: rules=...' header"
    targets = set(header.group(1).split(","))
    expected: set[tuple[int, str]] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        marker = _EXPECT_RE.search(line)
        if marker:
            for rule in marker.group(1).split(","):
                expected.add((lineno, rule))
    return targets, expected


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.stem)
def test_fixture_findings_match_expectations(path):
    targets, expected = parse_fixture(path)
    unknown = targets - set(RULES_BY_ID)
    assert not unknown, f"{path.name} targets unknown rules {sorted(unknown)}"
    findings = lint_source(path.read_text(encoding="utf-8"), str(path))
    got = {(f.line, f.rule_id) for f in findings if f.rule_id in targets}
    missing = expected - got
    extra = got - expected
    assert not missing, f"{path.name}: expected findings never fired: {sorted(missing)}"
    assert not extra, f"{path.name}: unexpected findings (false positives): {sorted(extra)}"


def test_every_flow_rule_has_positive_and_negative_coverage():
    fired: dict[str, int] = {rule: 0 for rule in FLOW_RULES}
    negatives: dict[str, int] = {rule: 0 for rule in FLOW_RULES}
    for path in corpus_files():
        targets, expected = parse_fixture(path)
        source_lines = path.read_text(encoding="utf-8").splitlines()
        expect_lines = {line for line, _ in expected}
        # A "negative" is any statement line in a targeted fixture that is
        # expected to stay silent; every fixture mixes both.
        clean_statements = sum(
            1
            for i, text in enumerate(source_lines, start=1)
            if text.strip() and not text.lstrip().startswith("#") and i not in expect_lines
        )
        for rule in sorted(targets & set(FLOW_RULES)):
            fired[rule] += sum(1 for _, r in expected if r == rule)
            negatives[rule] += clean_statements
    for rule in FLOW_RULES:
        assert fired[rule] >= 2, f"{rule} needs at least two positive fixtures"
        assert negatives[rule] >= 3, f"{rule} needs negative (clean) fixture lines"


def test_acceptance_laundering_case():
    # The ISSUE's canonical case: wall-clock laundered through a local.
    findings = lint_source("import time\nt = time.time()\nscore = 0.0\nscore += t\n")
    assert any(f.rule_id == "SIM006" and f.line == 4 for f in findings)
