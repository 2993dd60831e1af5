"""The paper's contribution: search-based goal-oriented scheduling.

Layout:

- :mod:`repro.core.profile` — node-availability step function with
  earliest-fit queries; shared by backfill reservations and search.
- :mod:`repro.core.objective` — the hierarchical two-level objective
  (total excessive wait, then average bounded slowdown) with fixed and
  dynamic target wait bounds.
- :mod:`repro.core.branching` — fcfs / lxf / sjf branching heuristics.
- :mod:`repro.core.search_tree` — tree combinatorics and the pure
  permutation-order generators behind Figure 1.
- :mod:`repro.core.search` — the node-limited anytime LDS/DDS engine that
  evaluates candidate schedules.
- :mod:`repro.core.exact` — exact small-instance solver; the optimality
  oracle the engines' gap-to-optimal is measured against.
- :mod:`repro.core.scheduler` — the on-line policy wrapping it all
  (DDS/lxf/dynB and friends).
"""

from repro.core.profile import AvailabilityProfile
from repro.core.objective import (
    DynamicBound,
    FixedBound,
    ObjectiveConfig,
    ScheduleScore,
    TargetBound,
)
from repro.core.branching import HEURISTICS, order_jobs
from repro.core.criteria import (
    CriteriaEvaluator,
    Criterion,
    DecisionContext,
    FairshareDelay,
    MaxWait,
    MultiScore,
    RuntimeProportionalExcess,
    TotalBoundedSlowdown,
    TotalExcessiveWait,
    TotalWait,
    UsageTracker,
    WeightedWait,
    paper_objective,
)
from repro.core.search_tree import (
    dds_iteration_paths,
    dds_order,
    lds_iteration_paths,
    lds_order,
    num_nodes,
    num_paths,
)
from repro.core.search import DiscrepancySearch, SearchProblem, SearchResult
from repro.core.exact import ExactResult, solve_exact
from repro.core.schedule_builder import build_schedule
from repro.core.scheduler import SearchSchedulingPolicy, make_policy

__all__ = [
    "AvailabilityProfile",
    "ObjectiveConfig",
    "ScheduleScore",
    "TargetBound",
    "FixedBound",
    "DynamicBound",
    "HEURISTICS",
    "order_jobs",
    "Criterion",
    "CriteriaEvaluator",
    "DecisionContext",
    "MultiScore",
    "TotalExcessiveWait",
    "TotalBoundedSlowdown",
    "TotalWait",
    "MaxWait",
    "WeightedWait",
    "RuntimeProportionalExcess",
    "FairshareDelay",
    "UsageTracker",
    "paper_objective",
    "num_paths",
    "num_nodes",
    "lds_iteration_paths",
    "dds_iteration_paths",
    "lds_order",
    "dds_order",
    "DiscrepancySearch",
    "SearchProblem",
    "SearchResult",
    "ExactResult",
    "solve_exact",
    "build_schedule",
    "SearchSchedulingPolicy",
    "make_policy",
]
