"""Deterministic fault injection for drills and degradation tests.

:class:`FaultyManager` is a :class:`~repro.bdd.manager.Manager` that
fires a scheduled failure when its operation counter (node creations +
ITE steps + ``agree`` steps, counted in execution order) reaches
``at_operation``:

``budget``
    Raises :class:`~repro.analysis.errors.NodeBudgetExceeded`, as a
    real governor would — proves the budget-degradation path without
    tuning a real budget to a workload.
``cache``
    Silently flips the complement bit of every cached ITE result —
    the nightmare failure: no exception, just wrong answers.  Caught
    by :func:`repro.robust.guard.guard`, whose cover check is a
    node-free ``agree`` walk that never reads the ITE table, and
    curable with :meth:`~repro.bdd.manager.Manager.clear_caches`.

Faults are scheduled on a deterministic counter, not wall clock or
randomness, so every drill replays identically — a failing degradation
test is reproducible by construction.  ``repro-bdd inject`` exposes the
same plans for manual drills.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.errors import NodeBudgetExceeded
from repro.bdd.manager import EVENT_ITE, Manager
from repro.obs.hooks import attach_hook

#: Fault kinds understood by :class:`FaultPlan`.
FAULT_BUDGET = "budget"
FAULT_CACHE = "cache"

FAULT_KINDS = (FAULT_BUDGET, FAULT_CACHE)


@dataclass(frozen=True)
class FaultPlan:
    """When and what to inject.

    ``at_operation`` is 1-based: the fault fires on the first counted
    (and armed) operation at or after the N-th.  With ``repeat=True``
    it fires on every operation from the N-th on (so retries fail
    too); otherwise exactly once.
    """

    kind: str
    at_operation: int
    repeat: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                "unknown fault kind %r; expected one of %s"
                % (self.kind, ", ".join(FAULT_KINDS))
            )
        if self.at_operation < 1:
            raise ValueError("at_operation must be >= 1 (1-based)")


class FaultyManager(Manager):
    """A manager that fails on schedule (see module docstring).

    ``operations`` counts unique-table lookups (every ``make_node``
    reaching :meth:`_make_raw`, including during variable declaration)
    plus ITE kernel and ``agree`` steps (every :data:`EVENT_ITE`), in
    execution order; ``faults_fired`` counts
    injections so far.  The iterative kernel expands frames in the
    recursive post-order, so operation numbers — and therefore fault
    schedules — are unchanged from the recursive implementation.
    """

    def __init__(self, *args, plan: FaultPlan, armed: bool = True, **kwargs):
        # Counters must exist before __init__ creates the variables.
        self._plan = plan
        self.operations = 0
        self.faults_fired = 0
        # Operations are counted regardless, but faults only fire while
        # armed — lets a drill build its instance first, then arm.
        self.armed = armed
        super().__init__(*args, **kwargs)
        # ITE steps are observed through the step hook: the kernel has
        # no per-step method to override.  Attached via the composing
        # dispatcher after super().__init__ (which resets the hook
        # slot); being first in dispatch order, the tick fires before
        # any governor sees the event — as the old _ite override did.
        attach_hook(self, self._tick_ite)

    def _tick(self) -> None:
        self.operations += 1
        if not self.armed:
            return
        plan = self._plan
        if plan.repeat:
            due = self.operations >= plan.at_operation
        else:
            # One-shot: the first counted operation at or after the
            # N-th (an armed-late drill must not miss its slot).
            due = (
                self.operations >= plan.at_operation
                and self.faults_fired == 0
            )
        if not due:
            return
        self.faults_fired += 1
        if plan.kind == FAULT_BUDGET:
            raise NodeBudgetExceeded(
                "injected: budget trip at operation %d" % self.operations
            )
        self._corrupt_ite_cache()

    def _corrupt_ite_cache(self) -> None:
        # Deliberate encapsulation break: this class exists to damage
        # the manager from the inside.  Flipping the complement bit of
        # every cached result keeps all refs structurally valid while
        # making every cache hit semantically wrong.
        cache = self._ite_cache  # repro-lint: skip=L2
        for key in cache:
            cache[key] ^= 1

    # Counted operations: unique-table lookups and ITE kernel steps.
    def _make_raw(self, level: int, high: int, low: int) -> int:
        self._tick()
        return super()._make_raw(level, high, low)

    def _tick_ite(self, event: str) -> None:
        if event == EVENT_ITE:
            self._tick()
