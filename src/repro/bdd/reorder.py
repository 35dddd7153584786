"""Variable reordering by rebuild: transfer, window search, sifting.

The paper fixes the variable order throughout ("assuming the variable
ordering is fixed") — minimization freedom comes from don't cares, not
from reordering.  This module provides the complementary knob so the
two can be studied together (see ``benchmarks/bench_ablation_order.py``):

* :func:`transfer` — copy functions into another manager that declares
  its variables in a different order (the same names must exist).
* :func:`reorder` — rebuild a set of functions under an explicit new
  order, returning a fresh manager and the translated refs.
* :func:`sift` — greedy sifting (Rudell-style search over positions,
  implemented by rebuild rather than in-place level swapping, which
  keeps the manager's immutable-ref design; fine for the sizes this
  library targets).
* :func:`exhaustive_order_search` — exact minimum over all ``n!``
  orders for small variable counts.

All entry points are pure: the input manager is never mutated.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.errors import InvariantError
from repro.bdd.manager import Manager, ONE


def transfer(
    source: Manager, target: Manager, refs: Sequence[int]
) -> List[int]:
    """Copy functions from one manager to another by variable *name*.

    The target manager must declare every variable in the support of
    the transferred functions (possibly at different levels).  Returns
    the translated refs, index-aligned with the input.  Runs on an
    explicit stack, so depth is bounded by heap, not by the interpreter
    recursion limit.
    """
    name_of = source.name_of_level
    top_branches = source.top_branches
    # Translations of regular refs; a complemented ref translates to
    # the complement of its regular ref's translation (ONE is regular).
    done: Dict[int, int] = {ONE: ONE}

    def translated(ref: int) -> int:
        return done[ref & ~1] ^ (ref & 1)

    for root in refs:
        # Post-order, then-branch first: a ``(ref, None)`` frame visits a
        # node, ``(ref, variable)`` builds it once both of its children
        # are done.
        stack: List[Tuple[int, Optional[int]]] = [(root & ~1, None)]
        while stack:
            ref, variable = stack.pop()
            if variable is not None:
                _, then_ref, else_ref = top_branches(ref)
                done[ref] = target.ite(
                    variable, translated(then_ref), translated(else_ref)
                )
            elif ref not in done:
                level, then_ref, else_ref = top_branches(ref)
                stack.append((ref, target.var(name_of(level))))
                stack.append((else_ref & ~1, None))
                stack.append((then_ref & ~1, None))
    return [translated(ref) for ref in refs]


def is_equiv(
    source: Manager, f: int, target: Manager, g: int
) -> bool:
    """Semantic equality of functions owned by *different* managers.

    Transfers ``f`` into ``target`` by variable name and compares refs
    (canonicity makes equality an integer comparison).  The target
    manager must declare every variable in ``f``'s support — the wire
    round-trip tests use this to check a deserialized BDD against its
    original.  Within one manager plain ``==`` on refs is equivalent
    and free.
    """
    if source is target:
        return f == g
    (transferred,) = transfer(source, target, [f])
    return transferred == g


def reorder(
    manager: Manager, refs: Sequence[int], order: Sequence[str]
) -> Tuple[Manager, List[int]]:
    """Rebuild ``refs`` under an explicit variable-name order.

    ``order`` must be a permutation of the manager's variable names.
    Returns ``(new_manager, new_refs)``.
    """
    if sorted(order) != sorted(manager.var_names):
        raise ValueError("order must be a permutation of the variable names")
    target = Manager(order)
    return target, transfer(manager, target, refs)


def shared_size(manager: Manager, refs: Sequence[int]) -> int:
    """Size of the shared DAG — the quantity reordering minimizes."""
    return manager.size_multi(refs)


def compact(
    manager: Manager, refs: Sequence[int]
) -> Tuple[Manager, List[int]]:
    """Copy live functions into a fresh manager, dropping dead nodes.

    The manager has no reference counting, so nodes created by
    intermediate computations accumulate in the unique table.  After a
    long traversal, ``compact`` transplants just the functions you
    still need (same variable order) into a new manager and lets the
    old one be garbage collected wholesale.
    """
    target = Manager(manager.var_names)
    return target, transfer(manager, target, refs)


def exhaustive_order_search(
    manager: Manager, refs: Sequence[int], max_vars: int = 8
) -> Tuple[Manager, List[int], Tuple[str, ...]]:
    """Try every permutation; exact but ``O(n!)`` rebuilds.

    Returns ``(best_manager, best_refs, best_order)``.
    """
    names = list(manager.var_names)
    if len(names) > max_vars:
        raise ValueError(
            "%d variables exceed the exhaustive budget of %d"
            % (len(names), max_vars)
        )
    best: Optional[Tuple[int, Manager, List[int], Tuple[str, ...]]] = None
    for permutation in itertools.permutations(names):
        candidate_manager, candidate_refs = reorder(
            manager, refs, permutation
        )
        size = shared_size(candidate_manager, candidate_refs)
        if best is None or size < best[0]:
            best = (size, candidate_manager, candidate_refs, permutation)
    if best is None:
        raise InvariantError("permutation search produced no candidate")
    return best[1], best[2], best[3]


def sift(
    manager: Manager,
    refs: Sequence[int],
    max_passes: int = 2,
) -> Tuple[Manager, List[int], Tuple[str, ...]]:
    """Greedy sifting: move each variable to its best position.

    Variables are processed in decreasing contribution (node count at
    their level); for each, every position in the order is evaluated by
    rebuild and the best kept.  Repeats up to ``max_passes`` times or
    until a pass makes no improvement.  Returns
    ``(new_manager, new_refs, order)``.
    """
    current_manager = manager
    current_refs = list(refs)
    current_order = list(manager.var_names)
    current_size = shared_size(current_manager, current_refs)
    for _ in range(max_passes):
        improved = False
        for name in _by_contribution(current_manager, current_refs):
            best_local: Tuple[int, int] = (current_size, current_order.index(name))
            base = [entry for entry in current_order if entry != name]
            for position in range(len(current_order)):
                candidate_order = base[:position] + [name] + base[position:]
                if candidate_order == current_order:
                    continue
                candidate_manager, candidate_refs = reorder(
                    current_manager, current_refs, candidate_order
                )
                size = shared_size(candidate_manager, candidate_refs)
                if size < best_local[0]:
                    best_local = (size, position)
            if best_local[0] < current_size:
                position = best_local[1]
                current_order = base[:position] + [name] + base[position:]
                current_manager, current_refs = reorder(
                    manager, refs, current_order
                )
                current_size = best_local[0]
                improved = True
        if not improved:
            break
    return current_manager, current_refs, tuple(current_order)


def _by_contribution(manager: Manager, refs: Sequence[int]) -> List[str]:
    """Variable names sorted by how many shared-DAG nodes they label."""
    counts: Dict[int, int] = {}
    for index in manager.nodes_reachable(refs):
        if index:
            level = manager.level(index << 1)
            counts[level] = counts.get(level, 0) + 1
    ranked = sorted(
        range(manager.num_vars),
        key=lambda level: (-counts.get(level, 0), level),
    )
    return [manager.name_of_level(level) for level in ranked]
