"""Cross-engine differential fuzzer: random small instances, every
oracle at once.

Each Hypothesis draw is an :class:`tests.oracles.InstanceSpec` — plain
data with a readable repr, so a shrunk counterexample can be pasted
straight into a deterministic regression test.  For every instance the
engines must agree bit-for-bit (fingerprint identity), with and without
branch-and-bound pruning, and none of them may ever report a score
better than the exact solver's provable optimum; with no node budget
they must attain it exactly.

The fixed-problem and full-replay differential tests live in
``test_search_fastpath.py`` / ``test_compiled_kernel.py``; the exact
solver's own certificate lives in ``test_exact.py``.  This file is the
random-instance sweep tying them together.
"""

from __future__ import annotations

import dataclasses
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.criteria import (
    CriteriaEvaluator,
    MaxWait,
    TotalBoundedSlowdown,
    TotalExcessiveWait,
    WeightedWait,
    paper_objective,
)
from repro.core.exact import solve_exact
from repro.core.local_search import evaluate_order
from repro.core.search import _ENGINES, DiscrepancySearch, resolve_runtimes
from repro.experiments.bench import build_problem
from repro.util.sanitize import sanitized
from tests.oracles import (
    CONFORMANCE_ENGINES,
    InstanceSpec,
    fingerprint,
    instance_specs,
    with_criteria,
)

FUZZ = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _prints(problem, algorithm, node_limit, **knobs):
    """Every conformance engine's fingerprint of one search, anytime trace
    included."""
    return {
        engine: fingerprint(
            DiscrepancySearch(
                algorithm,
                node_limit=node_limit,
                engine=engine,
                record_anytime=True,
                **knobs,
            ).search(problem)
        )
        for engine in CONFORMANCE_ENGINES
    }


@given(
    spec=instance_specs(min_jobs=0, max_jobs=5),
    algorithm=st.sampled_from(["dds", "lds"]),
    node_limit=st.sampled_from([7, 64, None]),
    prune=st.booleans(),
)
@FUZZ
def test_engines_bit_identical_on_random_instances(
    spec: InstanceSpec, algorithm: str, node_limit: int | None, prune: bool
):
    """fast == reference (== compiled) on arbitrary instances — at a
    budget that truncates mid-iteration, a roomier one, and exhaustively,
    with and without pruning (the pruned node accounting is part of the
    contract too).  ``min_jobs=0`` keeps the empty decision point in the
    fuzzed domain (every engine must normalise it through the ordinary
    leaf path, not a bespoke early return), and ``record_anytime=True``
    extends identity to the improvement trace.  The compiled kernel
    participates whenever its extension is importable
    (``CONFORMANCE_ENGINES`` resolves that once for the suite)."""
    prints = _prints(spec.to_problem(), algorithm, node_limit, prune=prune)
    assert all(p == prints["fast"] for p in prints.values()), prints


#: The objective forms the fast engine folds through its one traversal:
#: ``None`` is the two-level closure over the job columns, the rest go
#: through ``evaluator.extend`` — the paper's levels again, a ``max``-folded
#: level (whose lower bound adds nothing per unplaced job) and a
#: three-level hierarchy with a per-job weight.
OBJECTIVE_FORMS = {
    "two-level": None,
    "paper-criteria": paper_objective,
    "max-wait": lambda: (MaxWait(), TotalBoundedSlowdown()),
    "weighted": lambda: (
        TotalExcessiveWait(),
        WeightedWait(lambda job: 1.0 + job.nodes % 3),
        TotalBoundedSlowdown(),
    ),
}


@given(
    spec=instance_specs(min_jobs=0, max_jobs=5),
    form=st.sampled_from(sorted(OBJECTIVE_FORMS)),
    algorithm=st.sampled_from(["dds", "lds"]),
    node_limit=st.sampled_from([7, 64, None]),
    prune=st.booleans(),
)
@FUZZ
def test_objective_forms_bit_identical_on_random_instances(
    spec: InstanceSpec, form: str, algorithm: str, node_limit: int | None, prune: bool
):
    """fast == reference on every objective form, crossed with the budget,
    algorithm and pruning draws above.  An evaluator search shares the fast
    engine's DFS, leaf compare and bound with the two-level one, so its
    pruned node accounting — raw-tuple bounds against the reference's score
    objects — is part of the contract too."""
    problem = spec.to_problem()
    if OBJECTIVE_FORMS[form] is not None:
        problem = with_criteria(problem, OBJECTIVE_FORMS[form]())
    fast, reference = (
        fingerprint(
            DiscrepancySearch(
                algorithm,
                node_limit=node_limit,
                engine=engine,
                prune=prune,
                record_anytime=True,
            ).search(problem)
        )
        for engine in ("fast", "reference")
    )
    assert fast == reference


@given(
    spec=instance_specs(min_jobs=0, max_jobs=6),
    form=st.sampled_from(sorted(OBJECTIVE_FORMS)),
    algorithm=st.sampled_from(["dds", "lds"]),
    node_limit=st.sampled_from([24, 64, 200]),
    fraction=st.sampled_from([0.25, 0.5]),
)
@FUZZ
def test_hill_climbed_search_bit_identical_across_engines(
    spec: InstanceSpec, form: str, algorithm: str, node_limit: int, fraction: float
):
    """The climb scores each candidate order on the engine that ran the
    tree search, so a hill-climbed result — the climb's node visits, its
    improvement and its anytime entry included — is part of the contract:
    orders no discrepancy iteration produces, through every engine's chain
    (the compiled kernel's when the form is the two-level one)."""
    problem = spec.to_problem()
    if OBJECTIVE_FORMS[form] is not None:
        problem = with_criteria(problem, OBJECTIVE_FORMS[form]())
    prints = _prints(problem, algorithm, node_limit, local_search_fraction=fraction)
    assert all(p == prints["fast"] for p in prints.values()), prints


@pytest.mark.parametrize("algorithm", ["dds", "lds"])
def test_hill_climb_that_improves_is_bit_identical_across_engines(algorithm):
    """The 30-job point at L=2000, half of it for the climb, which is known
    to beat the tree phase there: the last anytime entry is the climb's, on
    every engine."""
    prints = _prints(build_problem("lxf"), algorithm, 2000, local_search_fraction=0.5)
    assert all(p == prints["fast"] for p in prints.values())
    *_, nodes_visited, _, _, _, improved, anytime = prints["fast"]
    assert improved and anytime[-1][0] == nodes_visited


@pytest.mark.parametrize("form", ["two-level", "paper-criteria"])
@pytest.mark.parametrize("algorithm", ["dds", "lds"])
@pytest.mark.parametrize("n", [30, 128])
def test_sanitized_per_node_chain_matches_batched_chain(n, algorithm, form):
    """Sanitized, the fast engine takes its chains one visit at a time
    (``_chain_per_node``, every mutation checked); otherwise the two-level
    objective commits them in batches (``_chain``).  At budgets that stop
    mid-chain, mid-iteration and not at all, the two must report the same
    search."""
    problem = build_problem("lxf", n_jobs=n)
    if OBJECTIVE_FORMS[form] is not None:
        problem = with_criteria(problem, OBJECTIVE_FORMS[form]())
    for node_limit in (n + 1, n + n // 2, 10 * n + 3, 2000):
        searcher = DiscrepancySearch(
            algorithm, node_limit=node_limit, engine="fast", record_anytime=True
        )
        with sanitized(False):
            batched = fingerprint(searcher.search(problem))
        with sanitized(True):
            per_node = fingerprint(searcher.search(problem))
        assert per_node == batched, node_limit


def test_non_positive_planning_runtime_is_every_engines_error():
    """Three 4-node jobs on 8 nodes, one planned at zero seconds: the
    reference profile refuses the reservation, and the engines that place
    without asking must refuse the search the same way — and so must an
    order scored directly, which is a search."""
    spec = InstanceSpec(
        capacity=8,
        jobs=((0.0, 4, 600.0), (0.0, 4, 600.0), (0.0, 4, 600.0)),
        segments=((14400.0, 8),),
        omega=900.0,
        heuristic="fcfs",
    )
    base = spec.to_problem()
    problem = dataclasses.replace(base, runtimes={**resolve_runtimes(base), 1: 0.0})
    messages = set()
    for engine in CONFORMANCE_ENGINES:
        with pytest.raises(ValueError, match="duration must be > 0") as raised:
            DiscrepancySearch("dds", node_limit=64, engine=engine).search(problem)
        messages.add(str(raised.value))
        with pytest.raises(ValueError, match="duration must be > 0") as raised:
            evaluate_order(problem, problem.jobs, engine=_ENGINES[engine])
        messages.add(str(raised.value))
    assert len(messages) == 1


@given(
    spec=instance_specs(min_jobs=0, max_jobs=5),
    algorithm=st.sampled_from(["dds", "lds"]),
    node_limit=st.sampled_from([7, 64, None]),
)
@FUZZ
def test_pruning_never_costs_quality_at_equal_budget(
    spec: InstanceSpec, algorithm: str, node_limit: int | None
):
    """Pruning only skips subtrees that cannot strictly beat the incumbent,
    so at an equal node budget the pruned search is at least as far along
    the same traversal: its score is never worse, and whenever the
    unpruned search covered the whole tree the two are equal."""
    problem = spec.to_problem()
    plain = DiscrepancySearch(algorithm, node_limit=node_limit).search(problem)
    pruned = DiscrepancySearch(algorithm, node_limit=node_limit, prune=True).search(
        problem
    )
    assert not (plain.best_score < pruned.best_score)
    if not plain.limit_hit:
        assert pruned.best_score == plain.best_score


@given(
    spec=instance_specs(min_jobs=0, max_jobs=5),
    algorithm=st.sampled_from(["dds", "lds"]),
    node_limit=st.sampled_from([3, 25, 200]),
)
@FUZZ
def test_search_never_beats_the_exact_oracle(
    spec: InstanceSpec, algorithm: str, node_limit: int
):
    """At any budget, search-best >= exact-optimal (as raw floats, no
    tolerance): a single violation would mean the oracle is not an
    oracle or an engine scored a schedule it never built."""
    problem = spec.to_problem()
    optimal = solve_exact(problem).best_score
    result = DiscrepancySearch(
        algorithm, node_limit=node_limit, engine="fast"
    ).search(problem)
    assert not (result.best_score < optimal)


@given(
    spec=instance_specs(min_jobs=0, max_jobs=5),
    algorithm=st.sampled_from(["dds", "lds"]),
)
@FUZZ
def test_exhaustive_search_attains_the_optimum(spec: InstanceSpec, algorithm: str):
    """Unbudgeted search minimises over exactly the oracle's leaf set, so
    the scores are equal as floats on every random instance."""
    problem = spec.to_problem()
    optimal = solve_exact(problem).best_score
    result = DiscrepancySearch(algorithm, node_limit=None, engine="fast").search(
        problem
    )
    assert result.best_score == optimal


# ----------------------------------------------------------------------
# A queue deeper than the interpreter's default recursion limit
# ----------------------------------------------------------------------
DEEP_QUEUE = 1_100  # the python DFS recurses once per waiting job


def test_deep_queue_is_bit_identical_and_leaves_the_recursion_limit_alone():
    """The scoped raise of the recursion limit belongs to the python DFS
    itself (``_SearchRunBase.run``), so a direct ``DiscrepancySearch``
    gets it on every engine — not only searches that come through the
    policy — and the interpreter is left as it was found."""
    problem = build_problem("lxf", n_jobs=DEEP_QUEUE)
    limit = sys.getrecursionlimit()
    assert limit < DEEP_QUEUE  # otherwise this exercises nothing
    prints = {}
    for engine in CONFORMANCE_ENGINES:
        result = DiscrepancySearch("lds", node_limit=5000, engine=engine).search(problem)
        assert sys.getrecursionlimit() == limit, engine
        assert result.nodes_visited == 5000 and len(result.best_order) == DEEP_QUEUE
        prints[engine] = fingerprint(result)
    assert all(p == prints["fast"] for p in prints.values())


class _FailsAtTheBottom(CriteriaEvaluator):
    """Scores like the paper's objective until the leaf, then raises —
    from as deep in the recursion as the queue is long."""

    def score(self, acc, n_jobs):
        raise RuntimeError("scoring failed")


@pytest.mark.parametrize("engine", CONFORMANCE_ENGINES)
def test_recursion_limit_is_restored_when_the_search_raises(engine):
    problem = with_criteria(
        build_problem("lxf", n_jobs=DEEP_QUEUE), paper_objective(), _FailsAtTheBottom
    )
    limit = sys.getrecursionlimit()
    with pytest.raises(RuntimeError, match="scoring failed"):
        DiscrepancySearch("lds", node_limit=5000, engine=engine).search(problem)
    assert sys.getrecursionlimit() == limit
