"""Counting what cannot win: the fast and compiled engines count a subtree
whose partial score is not below the incumbent instead of placing it
(``docs/performance.md``, "Counting what cannot win").

The shortcut must be invisible, so every test here is a differential
against the reference engine, which places every node:

- the precondition: no job submitted after ``now``.  Hand-made problems
  break it, so a level-2 term can be negative and a path's score can
  fall; the engines must notice and place everything;
- the budget cutting inside a counted subtree or a cut chain: every
  budget through DDS iteration 1 on two deep queues, then 1.5x steps,
  and every budget inside the first counted subtrees, on those and on
  eight jobs searched to the end — with proof that the shortcut ran and
  that the budget stopped it;
- the sanitizer, under which the fast engine places every node: one
  month against the same month unsanitized.
"""

from __future__ import annotations

import bisect
import functools

import pytest

from repro.core.profile import SearchProfile
from repro.core.scheduler import SearchSchedulingPolicy
from repro.core.search import (
    DiscrepancySearch,
    SearchResult,
    _FastSearchRun,
    _ReferenceSearchRun,
    _StopSearch,
    child_rule,
)
from repro.simulator.engine import Simulation
from repro.util.rng import RngStream
from repro.util.sanitize import sanitized
from repro.util.timeunits import HOUR
from repro.workloads.synthetic import generate_month
from tests.oracles import (
    CONFORMANCE_ENGINES,
    NOW,
    InstanceSpec,
    build_problem,
    fingerprint,
)
from tests.test_compiled_kernel import DEEP, _dds_nodes, _exact

#: The engines that count; each is held to the reference.
COUNTING = tuple(e for e in CONFORMANCE_ENGINES if e != "reference")


# ----------------------------------------------------------------------
# The precondition: a job submitted after ``now`` turns the gate off
# ----------------------------------------------------------------------
def _future_specs(count: int = 30, seed: int = 26) -> list[InstanceSpec]:
    """3-7 jobs on an 8-node machine, each submitted up to 4 h before
    ``NOW`` or up to 6 h after it, the first always after: a job whose
    wait is below minus its runtime adds a negative slowdown term."""
    rng = RngStream(seed, "future-submits")
    specs = []
    for _ in range(count):
        jobs = tuple(
            (
                NOW + float(rng.uniform(0, 6 * HOUR) if k == 0 or rng.uniform() < 0.5
                            else -rng.uniform(0, 4 * HOUR)),
                int(rng.integers(1, 9)),
                float(rng.uniform(60, 2 * HOUR)),
            )
            for k in range(int(rng.integers(3, 8)))
        )
        busy = int(rng.integers(0, 9))
        segments = ((NOW, busy), (NOW + float(rng.uniform(600, 3 * HOUR)), 8))
        specs.append(InstanceSpec(
            capacity=8,
            jobs=jobs,
            segments=segments if busy < 8 else ((NOW, 8),),
            omega=float(rng.choice([900.0, 3600.0])),
            heuristic=str(rng.choice(["fcfs", "lxf", "sjf"])),
        ))
    return specs


@pytest.mark.parametrize("algorithm", ["dds", "lds"])
def test_future_submits_turn_counting_off(algorithm, monkeypatch):
    """Counting with a negative term in reach drops improvements; with
    the ``max(submit) <= now`` gate the engines place every node, never
    ask the wait bound (``tests/test_wait_bound.py``) for a scan it could
    not use, and agree with the reference, exhaustive and at three
    budgets."""

    def no_bound(run, exc):
        raise AssertionError("wait bound asked with counting off")

    monkeypatch.setattr(_FastSearchRun, "_wait_bound", no_bound)
    for spec in _future_specs():
        problem = spec.to_problem()
        assert not _FastSearchRun(problem, algorithm, None, False)._count_dominated
        for node_limit in (5, 23, 150, None):
            want = fingerprint(DiscrepancySearch(
                algorithm, node_limit=node_limit, engine="reference",
                record_anytime=True,
            ).search(problem))
            for engine in COUNTING:
                got = DiscrepancySearch(
                    algorithm, node_limit=node_limit, engine=engine,
                    record_anytime=True,
                ).search(problem)
                assert fingerprint(got) == want, (spec, node_limit, engine)


# ----------------------------------------------------------------------
# Every budget through DDS iteration 1, and every budget inside counted
# subtrees
# ----------------------------------------------------------------------
#: Eight jobs, where counted subtrees have interior nodes of their own
#: (from node 46,960 under DDS, 37,652 under LDS), which the deep queues'
#: first iterations never reach.
EIGHT = InstanceSpec(
    capacity=8,
    jobs=tuple(
        (float((k * 1931) % 14400), 1 + (k * 5) % 8, 600.0 + (k * 2693) % 10800)
        for k in range(8)
    ),
    segments=((NOW, 2), (NOW + 5400.0, 8)),
    omega=3600.0,
    heuristic="lxf",
)

#: instance -> (problem, every budget through, then 1.5x steps through):
#: the deep queues through DDS iteration 1 and then iteration 2, the
#: eight jobs past their first interior counted subtrees (of 149,912
#: nodes in all).
SWEEPS = {
    "deep40": (DEEP.to_problem, _dds_nodes(40, 2), _dds_nodes(40, 3)),
    "bench30": (functools.partial(build_problem, "lxf"), _dds_nodes(30, 2), _dds_nodes(30, 3)),
    "eight": (EIGHT.to_problem, 0, 60_000),
}


class _Trajectory(_ReferenceSearchRun):
    """The reference engine, run once, noting its state at every budget
    check past the first leaf.  At budget ``B`` it stops at the first
    such check with ``B`` nodes visited (``_check_budget``), so the
    state noted there is its answer at ``B`` — every budget for the
    price of the largest."""

    def __init__(self, *args):
        super().__init__(*args)
        self.marks = []
        self.final = self.run()
        self.nodes = [mark[0] for mark in self.marks]

    def _check_budget(self):
        if self.leaves_evaluated:
            self.marks.append((
                self.nodes_visited, self.leaves_evaluated,
                self.iterations_started, self.improved_after_first,
                self.best_order, self.best_starts, self.best_score,
                len(self.anytime),
            ))
        super()._check_budget()

    def at(self, budget):
        """The reference's result at ``budget``, off the marks."""
        k = bisect.bisect_left(self.nodes, budget)
        if k == len(self.marks):
            return self.final  # no check stops it: the run's own end
        nodes, leaves, iterations, improved, order, starts, score, n_any = (
            self.marks[k]
        )
        return SearchResult(
            best_order=order, best_starts=starts, best_score=score,
            nodes_visited=nodes, leaves_evaluated=leaves,
            iterations_started=iterations, limit_hit=True,
            improved_after_first=improved, anytime=self.anytime[:n_any],
        )


class _Probe:
    """What the fast engine's shortcut did: chains ``place_run_fold``
    cut, nodes ``_wait_bound`` condemned, each outermost ``_count``'s
    span of nodes and whether its root is interior, and the budget stops
    raised through a chain's ``_count`` and through an interior one (a
    subtree stopped mid-way)."""

    def __init__(self, monkeypatch):
        self.cut_chains = self.chain_stops = self.interior_stops = 0
        self.bound_fired = 0
        self.spans = []
        depth = 0
        place_run_fold, count = SearchProfile.place_run_fold, _FastSearchRun._count
        wait_bound = _FastSearchRun._wait_bound

        def counted_wait_bound(run, exc):
            bound = wait_bound(run, exc)
            self.bound_fired += bound > run._cut[0]
            return bound

        def counted_place_run_fold(profile, *args):
            out = place_run_fold(profile, *args)
            self.cut_chains += out is None
            return out

        def counted_count(run, m, s):
            nonlocal depth
            first, interior = run.nodes_visited, child_rule(run._lds, s, m) is not None
            depth += 1
            try:
                count(run, m, s)
            except _StopSearch:
                if interior:
                    self.interior_stops += 1
                else:
                    self.chain_stops += 1
                raise
            finally:
                depth -= 1
            if not depth:
                self.spans.append((first, run.nodes_visited, interior))

        monkeypatch.setattr(SearchProfile, "place_run_fold", counted_place_run_fold)
        monkeypatch.setattr(_FastSearchRun, "_count", counted_count)
        monkeypatch.setattr(_FastSearchRun, "_wait_bound", counted_wait_bound)

    def inside_spans(self, per_kind=2):
        """Every budget inside the first ``per_kind`` chain spans and
        interior spans noted so far."""
        chains = [span for span in self.spans if not span[2]][:per_kind]
        interior = [span for span in self.spans if span[2]][:per_kind]
        return {b for first, last, _ in chains + interior for b in range(first, last + 1)}


@pytest.mark.parametrize("instance", sorted(SWEEPS))
def test_counting_is_exact_where_the_budget_cuts_it(instance, monkeypatch):
    """``compiled``, ``fast`` and the reference agree on every start's
    bits and the whole fingerprint, anytime trace included, at every
    budget of the instance's sweep and every budget inside its first
    counted subtrees — and on ``fast`` the shortcut demonstrably ran, cut
    chains, and was stopped by the budget inside a counted chain and,
    where counted subtrees have interior nodes, inside one of those: on
    the eight jobs, cut by the incumbent or by the wait bound, and on
    ``bench30``'s LDS by the wait bound alone.  Sanitizing off, or
    neither engine would count."""
    make, dense, end = SWEEPS[instance]
    problem = make()
    probe = _Probe(monkeypatch)
    with sanitized(False):
        for algorithm in ("dds", "lds"):
            del probe.spans[:]
            DiscrepancySearch(algorithm, node_limit=end, engine="fast").search(problem)
            budgets = set(range(1, dense + 1)) | probe.inside_spans()
            budget = max(dense, 1)
            while budget < end:
                budget = min(end, max(budget + 1, budget * 3 // 2))
                budgets.add(budget)
            reference = _Trajectory(problem, algorithm, end, False, True)
            for node_limit in sorted(budgets):
                want = _exact(reference.at(node_limit))
                for engine in COUNTING:
                    got = DiscrepancySearch(
                        algorithm, node_limit=node_limit, engine=engine,
                        record_anytime=True,
                    ).search(problem)
                    assert _exact(got) == want, (algorithm, engine, node_limit)
            # The noted trajectory is the reference's own answer.
            for node_limit in (dense or 1000, end):
                direct = DiscrepancySearch(
                    algorithm, node_limit=node_limit, engine="reference",
                    record_anytime=True,
                ).search(problem)
                assert _exact(direct) == _exact(reference.at(node_limit))
    assert probe.spans and probe.cut_chains and probe.chain_stops
    assert bool(probe.interior_stops) == (instance != "deep40")
    assert bool(probe.bound_fired) == (instance != "deep40")


# ----------------------------------------------------------------------
# The sanitizer places every node: a free differential
# ----------------------------------------------------------------------
def _searched_month(sanitize):
    """July 2003 at a quarter of full scale under ``DDS/lxf/dynB`` at
    L=1K on the fast engine: every search's fingerprint, marked with
    whether a job fits the nodes free now (the sanitizer also searches
    the decisions where none does, which the plain run skips), and the
    policy's stats."""
    workload = generate_month("2003-07", seed=2005, scale=0.25)
    policy = SearchSchedulingPolicy(
        algorithm="dds", heuristic="lxf", node_limit=1000, engine="fast"
    )
    search, decisions = policy.searcher.search, []

    def recorded(problem):
        result = search(problem)
        free = problem.profile.free[0]
        fits = any(job.nodes <= free for job in problem.jobs)
        decisions.append((fits, fingerprint(result)))
        return result

    policy.searcher.search = recorded
    with sanitized(sanitize):
        result = Simulation(
            workload.fresh_jobs(), policy, workload.cluster, window=workload.window
        ).run()
    return decisions, result.extra


def test_sanitized_month_equals_the_counting_one(monkeypatch):
    counts = []
    count = _FastSearchRun._count

    def counted_count(run, m, s):
        counts.append(m)
        count(run, m, s)

    monkeypatch.setattr(_FastSearchRun, "_count", counted_count)
    plain, plain_stats = _searched_month(False)
    assert counts  # the plain run counted ...
    del counts[:]
    checked, checked_stats = _searched_month(True)
    assert not counts  # ... and the sanitized one placed every node
    assert checked_stats == plain_stats
    assert all(fits for fits, _ in plain)
    assert [fp for fits, fp in checked if fits] == [fp for _, fp in plain]
    assert len(checked) > len(plain) == plain_stats["searched_decisions"]
