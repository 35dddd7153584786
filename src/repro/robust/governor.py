"""The resource governor: bounded BDD computations.

A :class:`Budget` limits three resources of one governed computation:
node creations in the unique table, ITE kernel steps (one per expanded
frame of the iterative ``ite`` kernel — the direct analogue of the old
recursive call count), and wall-clock time.  The :class:`Governor` enforces it through the manager's step
hook (:meth:`repro.bdd.manager.Manager.install_step_hook`): every
counted event checks the bounds and raises the matching typed
:class:`~repro.analysis.errors.BudgetExceeded` subclass the moment one
is crossed.  Industrial don't-care frameworks survive production
workloads exactly because they cap subcomputations this way (cf.
Mishchenko & Brayton's windowed complete don't-care computation, which
bounds resources per window).

Aborting mid-operation is safe: the manager caches only fully computed
results, so the unique table and all computed tables stay consistent
and a later retry resumes from whatever partial work was cached.

Counters reset when the manager's caches are flushed
(:data:`~repro.bdd.manager.EVENT_CLEAR`), so the §4.1.1 fairness
protocol — flush caches before each heuristic — restarts the budget
per heuristic for free.  :meth:`~repro.bdd.manager.Manager.gc` clears
caches as part of every collection, so a gc flush point resets the
budget the same way.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.analysis.errors import (
    DeadlineExceeded,
    NodeBudgetExceeded,
    StepBudgetExceeded,
)
from repro.bdd.manager import EVENT_CLEAR, EVENT_ITE, EVENT_NODE, Manager
from repro.obs.hooks import attach_hook, detach_hook

#: Hook events between wall-clock reads: the deadline check costs a
#: ``time.monotonic`` call, so it piggybacks on every 64th counted event
#: instead of every one.  A deadline therefore trips within 64 events of
#: the true instant — far finer than any useful deadline.
DEADLINE_CHECK_INTERVAL = 64


@dataclass(frozen=True)
class Budget:
    """Resource bounds for one governed computation.

    Every field is optional; ``None`` means unbounded.  ``max_nodes``
    counts unique-table node creations.  ``max_steps`` counts
    :data:`~repro.bdd.manager.EVENT_ITE` events: ITE kernel steps and
    the states :meth:`~repro.bdd.manager.Manager.agree` expands (so
    node-free match tests and cover checks are budgeted too).
    ``deadline`` is wall-clock seconds from governor start (or the last
    counter reset).  It is polled, not timed: the governor reads the
    clock on every ``DEADLINE_CHECK_INTERVAL``-th node or ITE event, so
    work that fires neither cannot be stopped — ``gather_at_level``,
    which the schedule's level steps run once per boundary, is such
    work.  Pooled cells bound their wall clock with a ``SIGALRM`` timer
    instead (:class:`repro.serve.pool._CellAlarm`).
    """

    max_nodes: Optional[int] = None
    max_steps: Optional[int] = None
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("max_nodes", "max_steps", "deadline"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(
                    "%s must be positive or None, got %r" % (name, value)
                )

    @property
    def unlimited(self) -> bool:
        """True iff no bound is set (the governor would be a no-op)."""
        return (
            self.max_nodes is None
            and self.max_steps is None
            and self.deadline is None
        )

    def scaled(self, factor: float) -> "Budget":
        """A proportionally larger budget (for escalation ladders)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return Budget(
            max_nodes=(
                None
                if self.max_nodes is None
                else int(math.ceil(self.max_nodes * factor))
            ),
            max_steps=(
                None
                if self.max_steps is None
                else int(math.ceil(self.max_steps * factor))
            ),
            deadline=(
                None if self.deadline is None else self.deadline * factor
            ),
        )

    def describe(self) -> str:
        """Human-readable summary, e.g. ``nodes<=500, deadline<=2.0s``."""
        parts = []
        if self.max_nodes is not None:
            parts.append("nodes<=%d" % self.max_nodes)
        if self.max_steps is not None:
            parts.append("steps<=%d" % self.max_steps)
        if self.deadline is not None:
            parts.append("deadline<=%gs" % self.deadline)
        return ", ".join(parts) if parts else "unlimited"


class Governor:
    """Counts governed events and raises when a :class:`Budget` is hit.

    Instances are callables with the manager step-hook signature, so a
    governor *is* its own hook.  ``clock`` is injectable for
    deterministic deadline tests.
    """

    def __init__(
        self,
        budget: Budget,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.budget = budget
        self._clock = clock
        self.nodes_created = 0
        self.ite_steps = 0
        self.resets = 0
        self.started = clock()
        self._events_since_clock = 0

    def __call__(self, event: str) -> None:
        if event == EVENT_NODE:
            self.nodes_created += 1
            limit = self.budget.max_nodes
            if limit is not None and self.nodes_created > limit:
                raise NodeBudgetExceeded(
                    "node budget exhausted: %d nodes created, budget %d"
                    % (self.nodes_created, limit)
                )
        elif event == EVENT_ITE:
            self.ite_steps += 1
            limit = self.budget.max_steps
            if limit is not None and self.ite_steps > limit:
                raise StepBudgetExceeded(
                    "step budget exhausted: %d ITE steps, budget %d"
                    % (self.ite_steps, limit)
                )
        elif event == EVENT_CLEAR:
            self.reset()
            return
        deadline = self.budget.deadline
        if deadline is not None:
            self._events_since_clock += 1
            if self._events_since_clock >= DEADLINE_CHECK_INTERVAL:
                self._events_since_clock = 0
                elapsed = self._clock() - self.started
                if elapsed > deadline:
                    raise DeadlineExceeded(
                        "deadline exhausted: %.3fs elapsed, budget %.3fs"
                        % (elapsed, deadline)
                    )

    def reset(self) -> None:
        """Zero the counters and restart the deadline clock.

        Called automatically when the governed manager flushes its
        caches (:meth:`~repro.bdd.manager.Manager.clear_caches`).
        """
        self.nodes_created = 0
        self.ite_steps = 0
        self._events_since_clock = 0
        self.started = self._clock()
        self.resets += 1

    def elapsed(self) -> float:
        """Seconds since governor start or the last reset."""
        return self._clock() - self.started


@contextmanager
def governed(
    manager: Manager, budget: Optional[Budget]
) -> Iterator[Optional[Governor]]:
    """Attach a :class:`Governor` to ``manager`` for one ``with`` block.

    Yields the governor (or ``None`` when ``budget`` is ``None`` or
    unlimited, in which case no hook is attached and the block runs at
    full speed).  The governor is attached through the composing
    dispatcher (:func:`repro.obs.hooks.attach_hook`), so it coexists
    with any other step hooks — a tracer, a ``CheckedManager`` node
    auditor, or an *outer* governor, which keeps counting and can still
    trip its own (larger) budget while an inner governed region runs.
    On exit the governor is detached, restoring the hook configuration
    exactly as it was.
    """
    if budget is None or budget.unlimited:
        yield None
        return
    governor = Governor(budget)
    attach_hook(manager, governor)
    try:
        yield governor
    finally:
        detach_hook(manager, governor)
