"""Sequential logic optimization with unreachable-state don't cares.

The paper's introduction names two FSM applications of BDD
minimization: shrinking frontier sets during traversal (handled in
:mod:`repro.fsm.reachability`) and "minimizing the transition relation
of an FSM with respect to the unreachable states".  This module makes
the latter a first-class operation: once the reachable set ``R`` is
known, every next-state and output function only needs to be correct
for states in ``R`` — the rest is a don't-care set the heuristics can
spend.

The result is a new machine that is *sequentially equivalent* to the
original (same behaviour from reset) but whose function BDDs are
smaller; :func:`minimize_fsm_logic` guards every replacement with the
Proposition 6 remedy, so no function ever grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.bdd.manager import Manager
from repro.core.registry import get_heuristic
from repro.fsm.machine import Fsm
from repro.fsm.reachability import reachable_states


@dataclass
class LogicMinimizationReport:
    """Size accounting for one machine optimization."""

    machine: Fsm
    reachable_fraction: float
    next_before: int
    next_after: int
    outputs_before: int
    outputs_after: int

    @property
    def total_before(self) -> int:
        return self.next_before + self.outputs_before

    @property
    def total_after(self) -> int:
        return self.next_after + self.outputs_after

    @property
    def reduction(self) -> float:
        if not self.total_after:
            return 1.0
        return self.total_before / self.total_after


def minimize_fsm_logic(
    fsm: Fsm,
    method: str = "restrict",
    reached: Optional[int] = None,
) -> LogicMinimizationReport:
    """Minimize every next-state and output function against ``¬R``.

    ``reached`` may be supplied (e.g. from a previous traversal);
    otherwise it is computed.  Returns a report wrapping a **new**
    :class:`Fsm` that shares the manager and variables but carries the
    minimized functions.  Each function is individually guarded so it
    never grows (Proposition 6).
    """
    manager = fsm.manager
    if reached is None:
        reached = reachable_states(fsm).reached
    heuristic = get_heuristic(method)

    def shrink(ref: int) -> int:
        cover = heuristic(manager, ref, reached)
        if manager.size(cover) < manager.size(ref):
            return cover
        return ref

    new_next = [shrink(ref) for ref in fsm.next_fns]
    new_outputs = {name: shrink(ref) for name, ref in fsm.output_fns.items()}
    optimized = Fsm(
        manager,
        fsm.name + ".opt",
        fsm.input_names,
        fsm.input_levels,
        fsm.latch_names,
        fsm.current_levels,
        fsm.next_levels,
        new_next,
        new_outputs,
        fsm.init_values,
    )
    state_bits = len(fsm.current_levels)
    total_vars = manager.num_vars
    reachable_count = manager.sat_count(reached, total_vars) >> (
        total_vars - state_bits
    )
    return LogicMinimizationReport(
        machine=optimized,
        reachable_fraction=reachable_count / (1 << state_bits),
        next_before=manager.size_multi(fsm.next_fns),
        next_after=manager.size_multi(new_next),
        outputs_before=manager.size_multi(fsm.output_fns.values()),
        outputs_after=manager.size_multi(new_outputs.values()),
    )


def sequentially_equivalent(
    original: Fsm, optimized: Fsm, reached: Optional[int] = None
) -> bool:
    """Check the two machines agree on every reachable state and input.

    The machines must share manager, variables and reset state (the
    shape :func:`minimize_fsm_logic` produces).  Verifies that on
    ``R × inputs`` every next-state function and every output function
    coincide — the precise guarantee unreachable-state don't cares
    preserve.
    """
    manager = original.manager
    if original.current_levels != optimized.current_levels:
        raise ValueError("machines do not share state variables")
    if reached is None:
        reached = reachable_states(original).reached
    for before, after in zip(original.next_fns, optimized.next_fns):
        if not manager.agree(before, after, reached):
            return False
    return all(
        manager.agree(before, optimized.output_fns[name], reached)
        for name, before in original.output_fns.items()
    )
