"""Image computation for BDD-encoded FSMs.

Two interchangeable methods:

* :func:`image_by_relation` — build the monolithic transition relation
  ``T(s, w, s') = ∏_j (s'_j ↔ δ_j(s, w))`` once (cached on the Fsm) and
  compute ``Img(S) = (∃ s, w . S·T)[s' := s]`` with an interleaved
  and-exists.
* :func:`image_by_constrain_range` — the Coudert–Berthet–Madre method
  the paper's application actually used: constrain each next-state
  function by the current state set, then compute the *range* of the
  resulting function vector by recursive output splitting.  This relies
  on the special property of constrain noted in the paper's footnote 1
  (a cover produced by an arbitrary minimizer would give a wrong image,
  which is why the experimental harness must return constrain's result
  to the traversal even while measuring other heuristics).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.bdd.manager import Manager, ONE, ZERO
from repro.core.sibling import constrain
from repro.fsm.machine import Fsm


def transition_relation(fsm: Fsm) -> int:
    """The monolithic transition relation, cached on the machine."""
    if fsm._relation is None:
        manager = fsm.manager
        # One balanced AND over the clauses in latch order.  A product
        # machine lists the left machine's latches, then the right's,
        # so with equal latch counts each machine's clauses are
        # conjoined among themselves and the two halves meet once.  A
        # left fold conjoined each clause into the product of all
        # clauses so far, creating about twice the relation's nodes.
        fsm._relation = manager.and_many(
            manager.xnor(fsm.next_var(index), next_fn)
            for index, next_fn in enumerate(fsm.next_fns)
        )
    return fsm._relation


def image_by_relation(fsm: Fsm, states: int) -> int:
    """``Img(S)`` over current-state variables, via the relation."""
    manager = fsm.manager
    relation = transition_relation(fsm)
    quantified = manager.and_exists(
        states, relation, fsm.input_levels + fsm.current_levels
    )
    return fsm.rename_next_to_current(quantified)


def preimage_by_relation(fsm: Fsm, states: int) -> int:
    """States with a one-step successor inside ``states``."""
    manager = fsm.manager
    relation = transition_relation(fsm)
    primed = fsm.rename_current_to_next(states)
    return manager.and_exists(
        primed, relation, fsm.input_levels + fsm.next_levels
    )


def image_by_clustered_relation(
    fsm: Fsm, states: int, cluster_size: int = 500
) -> int:
    """``Img(S)`` via a partitioned relation with early quantification.

    The monolithic relation can blow up even when every per-latch
    conjunct ``s'_j ↔ δ_j`` is small.  Clustering conjoins clauses
    (deepest next-state variable first) until a cluster's BDD exceeds
    ``cluster_size`` nodes, then quantifies each current-state/input
    variable as soon as no later cluster mentions it — the classic
    early-quantification schedule.
    """
    manager = fsm.manager
    if states == ZERO:
        return ZERO
    clusters = fsm.__dict__.setdefault("_clusters", {}).get(cluster_size)
    if clusters is None:
        clauses = [
            manager.xnor(fsm.next_var(index), fsm.next_fns[index])
            for index in range(fsm.num_latches - 1, -1, -1)
        ]
        clusters = []
        accumulated = ONE
        for clause in clauses:
            candidate = manager.and_(accumulated, clause)
            if (
                accumulated != ONE
                and manager.size(candidate) > cluster_size
            ):
                clusters.append(accumulated)
                accumulated = clause
            else:
                accumulated = candidate
        clusters.append(accumulated)
        fsm.__dict__["_clusters"][cluster_size] = clusters
    quantifiable = set(fsm.input_levels) | set(fsm.current_levels)
    later_supports = []
    running: set = set()
    for cluster in reversed(clusters):
        later_supports.append(set(running))
        running |= manager.support(cluster)
    later_supports.reverse()
    result = states
    for cluster, later in zip(clusters, later_supports):
        retire_now = (
            quantifiable
            & (manager.support(result) | manager.support(cluster))
        ) - later
        result = manager.and_exists(result, cluster, retire_now)
    leftovers = quantifiable & manager.support(result)
    if leftovers:
        result = manager.exists(result, leftovers)
    return fsm.rename_next_to_current(result)


def image_by_constrain_range(fsm: Fsm, states: int, constrain_hook=None) -> int:
    """``Img(S)`` as the range of the constrained next-state vector.

    ``Range([δ_1|S, ..., δ_k|S])`` is computed by the classic recursive
    output-splitting method: pick the first non-constant component f,
    then ``Range = y·Range(rest|f) + ¬y·Range(rest|¬f)`` where ``|`` is
    the constrain operator — correct *because* constrain reduces a
    vector image to a range (footnote 1 of the paper).

    ``constrain_hook(manager, f, c)`` observes every top-level
    ``constrain(δ_j, S)`` call — these are the minimization instances
    with *sparse* care sets that dominate the paper's experimental data
    (the care set is the state set S, a sliver of the whole space).
    The traversal itself always continues with constrain's result,
    since an arbitrary cover would compute a wrong image.
    """
    manager = fsm.manager
    if states == ZERO:
        return ZERO
    if constrain_hook is not None:
        for next_fn in fsm.next_fns:
            constrain_hook(manager, next_fn, states)
    constrained = tuple(
        constrain(manager, next_fn, states) for next_fn in fsm.next_fns
    )
    cache: Dict[Tuple[int, ...], int] = {}
    result = _range_of_vector(
        manager, constrained, fsm.current_levels, 0, cache
    )
    return result


def _range_of_vector(
    manager: Manager,
    vector: Tuple[int, ...],
    output_levels: Sequence[int],
    position: int,
    cache: Dict[Tuple[int, ...], int],
) -> int:
    if position == len(vector):
        return ONE
    key = vector[position:]
    cached = cache.get(key)
    if cached is not None:
        return cached
    component = vector[position]
    output = manager.var(output_levels[position])
    if component == ONE:
        result = manager.and_(
            output,
            _range_of_vector(manager, vector, output_levels, position + 1, cache),
        )
    elif component == ZERO:
        result = manager.and_(
            output ^ 1,
            _range_of_vector(manager, vector, output_levels, position + 1, cache),
        )
    else:
        rest = vector[position + 1 :]
        on_true = tuple(
            constrain(manager, entry, component) for entry in rest
        )
        on_false = tuple(
            constrain(manager, entry, component ^ 1) for entry in rest
        )
        positive = _range_of_vector(
            manager, vector[: position + 1] + on_true, output_levels, position + 1, cache
        )
        negative = _range_of_vector(
            manager, vector[: position + 1] + on_false, output_levels, position + 1, cache
        )
        result = manager.or_(
            manager.and_(output, positive),
            manager.and_(output ^ 1, negative),
        )
    cache[key] = result
    return result
