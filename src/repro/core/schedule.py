"""The windowed scheduling heuristic (paper Section 3.4).

The paper's key observation is that the transformations differ in how
*safe* they are — how much don't-care freedom they consume and how
likely they are to lose the optimal solution.  osm only risks the
superstructure (Theorem 12), so it is applied first; tsm consumes
freedom from both sides; constrain commits everything locally.  The
schedule walks a window of levels down the BDD and, inside each window,
applies in order:

1. osm on siblings,
2. tsm on siblings,
3. osm at each level in the window,
4. tsm at each level in the window,

then slides the window.  When fewer than ``stop_top_down`` levels
remain, constrain assigns the rest of the don't cares locally and the
result is returned.  Steps 3 and 4 are the expensive ones and can be
disabled to trade quality for runtime, as the paper suggests.

Runtime auditing: with ``REPRO_CHECK=1`` every windowed transformation
is checked to be *safe* — the transformed pair must i-cover its input
(no don't-care freedom outside the window is committed), cf.
:func:`repro.analysis.contracts.audit_pair_step` — and the final result
is checked to cover the original instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.checked import checking_enabled
from repro.analysis.errors import RECOVERABLE_ERRORS
from repro.bdd.manager import Manager, ONE, ZERO
from repro.core.criteria import Criterion
from repro.core.sibling import constrain, sibling_pass
from repro.core.levels import minimize_at_level
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace


@dataclass(frozen=True)
class Schedule:
    """Parameters of the Section 3.4 schedule.

    The paper leaves good values of ``window_size`` and
    ``stop_top_down`` as an open experimental question; the ablation
    bench ``benchmarks/bench_ablation_schedule.py`` sweeps them.
    """

    window_size: int = 4
    stop_top_down: int = 4
    use_level_steps: bool = True
    sibling_no_new_vars: bool = True
    sibling_match_complement: bool = False
    batch_size: Optional[int] = None
    #: Collect garbage every N windows (the paper invokes the collector
    #: at flush points so runtimes stay comparable, §4.1.1); ``None``
    #: disables in-loop collection.  Collection is non-compacting, so
    #: every ref the loop holds stays valid.
    gc_interval: Optional[int] = None

    def __post_init__(self) -> None:
        if self.window_size < 1:
            raise ValueError("window_size must be positive")
        if self.stop_top_down < 0:
            raise ValueError("stop_top_down must be non-negative")
        if self.gc_interval is not None and self.gc_interval < 1:
            raise ValueError("gc_interval must be positive or None")


def _audited_step(manager, before, after, context):
    """Audit one safe transformation (only called under REPRO_CHECK=1)."""
    from repro.analysis.contracts import audit_pair_step

    audit_pair_step(manager, before, after, context)
    return after


def scheduled_minimize(
    manager: Manager,
    f: int,
    c: int,
    schedule: Schedule = Schedule(),
    degrade: bool = False,
) -> int:
    """Minimize ``[f, c]`` with the windowed schedule; returns a cover.

    With ``degrade=True`` a failure from
    :data:`~repro.analysis.errors.RECOVERABLE_ERRORS` (a budget trip or
    a failed audit) ends the schedule early and the best *safe*
    intermediate is returned: the ``current_f`` of the last fully
    completed (and, under ``REPRO_CHECK=1``, audited) window step, or
    ``f`` itself if that intermediate is no smaller.  Both are covers
    of ``[f, c]``: every intermediate pair i-covers the input instance,
    so degradation never trades away correctness.
    """
    if c == ZERO:
        return ONE
    state = [f, c]
    try:
        with obs_trace.span(
            "schedule.minimize",
            window_size=schedule.window_size,
            stop_top_down=schedule.stop_top_down,
        ):
            return _scheduled_loop(manager, f, c, schedule, state)
    except RECOVERABLE_ERRORS:
        if not degrade:
            raise
        best = state[0]
        if manager.size(best) < manager.size(f):
            return best
        return f


def _scheduled_loop(
    manager: Manager, f: int, c: int, schedule: Schedule, state: list
) -> int:
    """The schedule proper; ``state`` tracks the last safe pair.

    ``state[0], state[1]`` are updated only after a window step has
    both completed and passed its audit, so whatever they hold when an
    exception escapes is a pair that i-covers the input instance.
    """
    auditing = checking_enabled()
    mreg = obs_metrics.active()
    current_f, current_c = f, c
    level = 0
    windows_since_gc = 0
    while True:
        if current_c == ONE or manager.is_constant(current_f):
            return current_f
        support = manager.support_multi((current_f, current_c))
        if not support:
            return current_f
        deepest = max(support)
        remaining = deepest + 1 - level
        if remaining < schedule.stop_top_down or level > deepest:
            # Step 6: few levels left; matches made down here cannot
            # save many nodes, so assign the rest locally.
            with obs_trace.span("schedule.constrain_tail", level=level):
                result = constrain(manager, current_f, current_c)
            if auditing:
                from repro.analysis.contracts import audit_result

                audit_result(manager, "sched", f, c, result)
            return result
        lo, hi = level, level + schedule.window_size
        if mreg is not None:
            mreg.inc("schedule.windows")
        with obs_trace.span("schedule.window", lo=lo, hi=hi):
            before = (current_f, current_c)
            current_f, current_c = sibling_pass(
                manager,
                current_f,
                current_c,
                Criterion.OSM,
                match_complement=schedule.sibling_match_complement,
                no_new_vars=schedule.sibling_no_new_vars,
                lo=lo,
                hi=hi,
            )
            if auditing:
                _audited_step(
                    manager,
                    before,
                    (current_f, current_c),
                    "osm siblings [%d, %d)" % (lo, hi),
                )
            state[0], state[1] = current_f, current_c
            before = (current_f, current_c)
            current_f, current_c = sibling_pass(
                manager,
                current_f,
                current_c,
                Criterion.TSM,
                match_complement=schedule.sibling_match_complement,
                lo=lo,
                hi=hi,
            )
            if auditing:
                _audited_step(
                    manager,
                    before,
                    (current_f, current_c),
                    "tsm siblings [%d, %d)" % (lo, hi),
                )
            state[0], state[1] = current_f, current_c
            if schedule.use_level_steps:
                top_boundary = max(lo, 1)
                bottom_boundary = min(hi, deepest + 1)
                for criterion in (Criterion.OSM, Criterion.TSM):
                    for boundary in range(top_boundary, bottom_boundary + 1):
                        before = (current_f, current_c)
                        current_f, current_c = minimize_at_level(
                            manager,
                            current_f,
                            current_c,
                            boundary,
                            criterion=criterion,
                            batch_size=schedule.batch_size,
                        )
                        if auditing:
                            _audited_step(
                                manager,
                                before,
                                (current_f, current_c),
                                "%s at level %d"
                                % (criterion.name.lower(), boundary),
                            )
                        state[0], state[1] = current_f, current_c
        if schedule.gc_interval is not None:
            windows_since_gc += 1
            if windows_since_gc >= schedule.gc_interval:
                windows_since_gc = 0
                # Between windows every live intermediate is one of
                # these four refs, so they are the complete root set.
                manager.gc((f, c, current_f, current_c))
        level += schedule.window_size
