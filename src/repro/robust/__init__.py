"""Fault tolerance: resource budgets, guarded heuristics, checkpoints.

The paper's experiments (§4.1.1) replay *every* intercepted
minimization call through all Table 2/3 heuristics.  One pathological
``[f, c]`` instance — a quadratic blow-up in ``constrain``, the
unbounded growth of Proposition 4 — must yield a recorded failure,
never a lost sweep.  This package provides the four layers that
guarantee it:

:mod:`repro.robust.governor`
    A :class:`Budget` of node creations, ITE steps and wall-clock time,
    enforced through the manager's step hook; exceeding any bound
    raises a typed :class:`repro.analysis.errors.BudgetExceeded`.
:mod:`repro.robust.guard`
    :func:`guard` wraps any heuristic so budget trips, invariant
    violations and broken contracts degrade to the always-valid
    identity cover ``g = f`` (Definition 2: ``f·c ≤ f ≤ f + ¬c``),
    optionally retrying on a ladder of escalating budgets.
:mod:`repro.robust.checkpoint`
    A JSONL journal of completed measurements so a killed Table 3/4
    sweep resumes where it died (``repro-bdd experiments --resume``).
:mod:`repro.robust.faults`
    :class:`FaultyManager` injects deterministic failures at scheduled
    operation counts, proving the degradation paths under test and in
    manual ``repro-bdd inject`` drills.
:mod:`repro.robust.chaos`
    Seeded chaos schedules (worker SIGKILL, stalls, corrupt wire
    payloads, memory spikes) composed with a closed-loop load
    generator over the serve-layer gateway — ``repro-bdd loadtest``
    asserts every completed response is a valid Definition 2 cover and
    every rejection is typed, under every fault schedule.

See ``docs/robustness.md`` for the full degradation semantics.
"""

from repro.analysis.errors import (
    RECOVERABLE_ERRORS,
    BudgetExceeded,
    DeadlineExceeded,
    NodeBudgetExceeded,
    StepBudgetExceeded,
)
from repro.robust.governor import Budget, Governor, governed
from repro.robust.guard import GuardedHeuristic, guard, guarding_enabled
from repro.robust.checkpoint import Checkpoint, CheckpointError
from repro.robust.chaos import (
    FAULT_SCHEDULES,
    ChaosEvent,
    ChaosInjector,
    ChaosSchedule,
    LoadConfig,
    LoadReport,
    named_schedule,
    run_loadtest,
)
from repro.robust.faults import (
    FAULT_BUDGET,
    FAULT_CACHE,
    FaultPlan,
    FaultyManager,
)

__all__ = [
    "ChaosEvent",
    "ChaosSchedule",
    "ChaosInjector",
    "LoadConfig",
    "LoadReport",
    "FAULT_SCHEDULES",
    "named_schedule",
    "run_loadtest",
    "Budget",
    "Governor",
    "governed",
    "GuardedHeuristic",
    "guard",
    "guarding_enabled",
    "RECOVERABLE_ERRORS",
    "Checkpoint",
    "CheckpointError",
    "FaultPlan",
    "FaultyManager",
    "FAULT_BUDGET",
    "FAULT_CACHE",
    "BudgetExceeded",
    "NodeBudgetExceeded",
    "StepBudgetExceeded",
    "DeadlineExceeded",
]
