"""Guarded heuristic execution with graceful degradation.

:func:`run_cell` runs, times and cover-checks one heuristic call for
the serial sweep, the pool worker and :class:`GuardedHeuristic` alike.

:func:`guard` wraps any heuristic of the registry signature
``heuristic(manager, f, c) -> ref`` so that it *cannot* take down its
caller: on budget exhaustion, invariant violation or a broken cover
contract, the wrapper returns the identity cover ``g = f`` — always
correct by Definition 2 (``f·c ≤ f ≤ f + ¬c``) — and records the
failure reason instead of raising.

Degradation policy
------------------

* :class:`~repro.analysis.errors.BudgetExceeded` is
  :data:`~repro.analysis.errors.TRANSIENT`: with a bigger budget the
  heuristic might succeed, so the guard optionally retries on a ladder
  of escalating budgets before falling back.
* :class:`~repro.analysis.errors.InvariantError`,
  :class:`~repro.analysis.errors.ContractError` and a non-cover are
  :data:`~repro.analysis.errors.DETERMINISTIC` bugs: retrying cannot
  help, so the guard degrades immediately.
* Any other exception is a programming error and propagates — the
  guard must never mask genuine crashes as degradations.

``REPRO_GUARD=1`` opts the whole library in:
:func:`repro.core.registry.get_heuristic` then returns guarded
wrappers without code changes, mirroring ``REPRO_CHECK`` for the
contract audits.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.analysis.errors import (
    DETERMINISTIC,
    RECOVERABLE_ERRORS,
    TRANSIENT,
    BudgetExceeded,
    ContractError,
)
from repro.bdd.manager import Manager
from repro.core.ispec import ISpec
from repro.obs.metrics import diff_statistics
from repro.robust.governor import Budget, governed

#: Environment variable globally enabling guarded heuristic dispatch.
ENV_VAR = "REPRO_GUARD"

#: Budget-scale ladder used when ``escalate=True`` and none is given.
DEFAULT_LADDER: Tuple[float, ...] = (1.0, 4.0, 16.0)


def guarding_enabled() -> bool:
    """True iff ``REPRO_GUARD=1``: guard every dispatched heuristic."""
    return os.environ.get(ENV_VAR) == "1"


def describe_error(error: BaseException) -> str:
    """One-line failure reason, e.g. ``NodeBudgetExceeded: ...``."""
    text = str(error)
    name = type(error).__name__
    return "%s: %s" % (name, text) if text else name


@dataclass
class Cell:
    """One heuristic call as :func:`run_cell` ran it.

    ``cover`` is ``None`` when the call failed; ``reason`` and ``kind``
    (:data:`~repro.analysis.errors.TRANSIENT` or
    :data:`~repro.analysis.errors.DETERMINISTIC`) then say why, and
    ``error`` is the caught exception.  ``seconds`` and ``stats`` (a
    :func:`~repro.obs.metrics.diff_statistics` delta) cover the
    governed heuristic call only, failed or not.
    """

    cover: Optional[int]
    seconds: float
    stats: Dict[str, int]
    reason: Optional[str] = None
    kind: Optional[str] = None
    error: Optional[BaseException] = None


def run_cell(
    manager: Manager,
    f: int,
    c: int,
    heuristic: Callable[[Manager, int, int], int],
    name: str,
    budget: Optional[Budget],
) -> Cell:
    """Run ``heuristic(manager, f, c)`` under ``budget`` and check it.

    The call is timed and its statistics delta taken over the governed
    region alone.  The cover check (one node-free ``agree`` walk through
    :meth:`ISpec.is_cover <repro.core.ispec.ISpec.is_cover>`) runs
    after it, outside that region.  A budget trip, a broken invariant or
    contract, or a non-cover returns a failed :class:`Cell`; any other
    exception is a programming error and propagates.
    """
    stats_before = manager.statistics()
    started = time.perf_counter()
    try:
        try:
            with governed(manager, budget):
                cover = heuristic(manager, f, c)
        finally:
            # The timed region ends here, failed or not: the check
            # below is the runner's work, not the heuristic's.
            seconds = time.perf_counter() - started
            stats = diff_statistics(stats_before, manager.statistics())
        if not ISpec(manager, f, c).is_cover(cover):
            raise ContractError("%s returned a non-cover" % name)
    except RECOVERABLE_ERRORS as error:
        transient = isinstance(error, BudgetExceeded)
        kind = TRANSIENT if transient else DETERMINISTIC
        return Cell(None, seconds, stats, describe_error(error), kind, error)
    return Cell(cover, seconds, stats)


class GuardedHeuristic:
    """A heuristic wrapper that degrades instead of raising.

    Callable with the registry signature ``(manager, f, c) -> ref``.
    Each ladder rung is one :func:`run_cell`, so every result is
    checked to cover ``[f, c]``; a non-cover degrades like any contract
    violation.  After each call, :attr:`last_failure` holds the failure
    reason (or ``None`` on clean success) and :attr:`failures` counts
    degradations over the wrapper's lifetime.

    Parameters
    ----------
    heuristic:
        The wrapped callable.
    name:
        Display name for failure reports (defaults to ``__name__``).
    budget:
        Optional :class:`~repro.robust.governor.Budget` enforced around
        every attempt.
    ladder:
        Scale factors applied to ``budget`` on successive attempts
        (default: a single attempt at scale 1).  Ignored without a
        budget — an unbudgeted failure is deterministic, so there is
        nothing to escalate.
    on_failure:
        Optional callback ``(name, reason) -> None`` invoked on every
        degradation.
    """

    def __init__(
        self,
        heuristic: Callable[[Manager, int, int], int],
        name: Optional[str] = None,
        budget: Optional[Budget] = None,
        ladder: Optional[Sequence[float]] = None,
        on_failure: Optional[Callable[[str, str], None]] = None,
    ):
        self.heuristic = heuristic
        self.name = name or getattr(heuristic, "__name__", "heuristic")
        self.__name__ = "guarded:%s" % self.name
        self.__doc__ = getattr(heuristic, "__doc__", None)
        self.budget = budget
        if ladder is None:
            ladder = (1.0,)
        if not ladder:
            raise ValueError("ladder must contain at least one scale factor")
        self.ladder: Tuple[float, ...] = tuple(ladder)
        self.on_failure = on_failure
        self.calls = 0
        self.failures = 0
        #: Total ladder rungs executed over the wrapper's lifetime.
        self.attempts = 0
        #: Ladder rungs executed by the most recent call.
        self.last_attempts = 0
        self.last_failure: Optional[str] = None

    def __call__(self, manager: Manager, f: int, c: int) -> int:
        self.calls += 1
        self.last_failure = None
        self.last_attempts = 0
        # Without a budget, escalation is meaningless: run once.
        factors = self.ladder if self.budget is not None else (1.0,)
        for rung, factor in enumerate(factors):
            attempt_budget = (
                self.budget.scaled(factor)
                if self.budget is not None
                else None
            )
            self.attempts += 1
            self.last_attempts = rung + 1
            cell = run_cell(
                manager, f, c, self.heuristic, self.name, attempt_budget
            )
            if cell.cover is not None:
                return cell.cover
            reason = self._annotate(cell.reason, rung, attempt_budget)
            if cell.kind == DETERMINISTIC:
                # A bigger budget cannot help.
                break
        self.failures += 1
        self.last_failure = reason
        if self.on_failure is not None:
            self.on_failure(self.name, reason)
        return f

    def _annotate(
        self, reason: str, rung: int, attempt_budget: Optional[Budget]
    ) -> str:
        """Tag a failure reason with the ladder rung and budget it hit.

        Without a budget there is exactly one unbudgeted attempt and
        nothing to disambiguate, so the reason passes through bare.
        """
        if attempt_budget is None:
            return reason
        return "%s [rung %d/%d: %s]" % (
            reason,
            rung + 1,
            len(self.ladder),
            attempt_budget.describe(),
        )

    def __repr__(self) -> str:
        budget = self.budget.describe() if self.budget else "unlimited"
        return "GuardedHeuristic(%s, budget=%s)" % (self.name, budget)


def guard(
    heuristic: Callable[[Manager, int, int], int],
    name: Optional[str] = None,
    budget: Optional[Budget] = None,
    escalate: bool = False,
    ladder: Optional[Sequence[float]] = None,
    on_failure: Optional[Callable[[str, str], None]] = None,
) -> GuardedHeuristic:
    """Wrap ``heuristic`` for graceful degradation (see module docs).

    ``escalate=True`` retries budget trips on :data:`DEFAULT_LADDER`
    unless an explicit ``ladder`` is given.  Idempotent on an already
    guarded heuristic when no override disagrees with its existing
    configuration; a *conflicting* override without a ``budget`` raises
    :class:`ValueError` — the alternative, silently returning the
    wrapper unchanged, would leave the caller believing its settings
    took effect.  Passing a ``budget`` always builds a fresh wrapper.
    """
    if isinstance(heuristic, GuardedHeuristic) and budget is None:
        conflicts = []
        if escalate and tuple(DEFAULT_LADDER) != heuristic.ladder:
            conflicts.append("escalate")
        if ladder is not None and tuple(ladder) != heuristic.ladder:
            conflicts.append("ladder")
        if on_failure is not None and on_failure is not heuristic.on_failure:
            conflicts.append("on_failure")
        if name is not None and name != heuristic.name:
            conflicts.append("name")
        if conflicts:
            raise ValueError(
                "guard() cannot re-configure %r without a budget: "
                "conflicting override(s): %s.  Pass a budget to build a "
                "fresh wrapper, or guard the raw heuristic instead."
                % (heuristic, ", ".join(conflicts))
            )
        return heuristic
    if ladder is None and escalate:
        ladder = DEFAULT_LADDER
    return GuardedHeuristic(
        heuristic,
        name=name,
        budget=budget,
        ladder=ladder,
        on_failure=on_failure,
    )
