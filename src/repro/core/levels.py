"""Minimizing at a level (paper Section 3.3) and the ``opt_lv`` heuristic.

"Minimizing at level *i*" takes a global view: instead of matching only
siblings, it gathers every incompletely specified subfunction pointed to
from level *i* or above, asks the FMM machinery for a minimum set of
i-covers, and rebuilds ``[f, c]`` with the matched subfunctions
replaced.  The three steps:

1. **Gather** — traverse ``f`` and ``c`` in lock-step depth-first
   order, stopping as soon as both nodes of a pair lie at or below the
   boundary level; each unique pair is one candidate function.  The
   first path reaching a pair is recorded for the distance-weight
   optimization.  Optionally only pairs whose ``f`` is rooted exactly
   at the boundary are kept, and the candidate set can be processed in
   batches of a given size (both set-limiting devices from §3.3.1).
2. **Match** — solve FMM: sinks of the DMG for ``osm``/``osdm``
   (Proposition 10), greedy clique cover of the UMG for ``tsm``
   (Theorem 15).
3. **Rebuild** — re-traverse the pair structure above the boundary and
   substitute each gathered pair with its i-cover.

``opt_lv`` applies tsm level minimization at every level top-down and
returns the final ``f'`` (a valid cover, since ``[f', c']`` i-covers the
input at every step and ``f'`` covers ``[f', c']``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.bdd.manager import Manager, ONE, ZERO, TERMINAL_LEVEL
from repro.core.criteria import Criterion
from repro.core.matching_graph import (
    DirectedMatchingGraph,
    UndirectedMatchingGraph,
    PATH_FREE,
    Path,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

Pair = Tuple[int, int]


def gather_at_level(
    manager: Manager,
    f: int,
    c: int,
    boundary: int,
    only_boundary_rooted: bool = False,
) -> Tuple[List[Pair], Dict[Pair, Path]]:
    """Collect subfunction pairs pointed to from above ``boundary``.

    Returns the unique pairs in depth-first discovery order plus the
    first path (one entry per level above the boundary; 2 = variable
    absent) under which each pair was reached.  With
    ``only_boundary_rooted`` only pairs whose ``f`` part is rooted
    exactly at the boundary level are returned (the paper's second
    set-limiting method, minimizing the node count at level *i+1*).
    """
    level = manager.level
    branches = manager.branches
    pairs: List[Pair] = []
    paths: Dict[Pair, Path] = {}
    visited = set()
    # Depth-first, else-branch first, on an explicit stack: pushing the
    # then-pair below the else-pair and testing ``visited`` only when a
    # pair is popped gives the recursive discovery order, each pair
    # along the first path that reaches it.
    stack: List[Tuple[int, int, Path]] = [(f, c, ())]
    while stack:
        f_ref, c_ref, path = stack.pop()
        key = (f_ref, c_ref)
        if key in visited:
            continue
        visited.add(key)
        f_level = level(f_ref)
        top = min(f_level, level(c_ref))
        if top >= boundary:
            if only_boundary_rooted and f_level != boundary:
                continue
            pairs.append(key)
            paths[key] = path + (PATH_FREE,) * (boundary - len(path))
            continue
        f_then, f_else = branches(f_ref, top)
        c_then, c_else = branches(c_ref, top)
        prefix = path + (PATH_FREE,) * (top - len(path))
        stack.append((f_then, c_then, prefix + (1,)))
        stack.append((f_else, c_else, prefix + (0,)))
    return pairs, paths


def rebuild_with_replacements(
    manager: Manager,
    f: int,
    c: int,
    boundary: int,
    replacement: Dict[Pair, Pair],
) -> Pair:
    """Substitute boundary pairs by their i-covers (step 3 of §3.3).

    Pairs without an entry in ``replacement`` are kept unchanged.  The
    result ``(f', c')`` i-covers ``[f, c]`` whenever every replacement
    value i-covers its key.
    """
    level = manager.level
    branches = manager.branches
    make_node = manager.make_node
    cache: Dict[Pair, Pair] = {}
    # Post-order, then-pair first, as a recursive rebuild would go: a
    # ``(None, pair)`` frame reaches a pair, a ``(top, pair)`` frame
    # rebuilds it once both of its halves are in the cache.
    stack: List[Tuple[Optional[int], Pair]] = [(None, (f, c))]
    while stack:
        top, key = stack.pop()
        f_ref, c_ref = key
        if top is None:
            if key in cache:
                continue
            top = min(level(f_ref), level(c_ref))
            if top >= boundary:
                cache[key] = replacement.get(key, key)
                continue
            f_then, f_else = branches(f_ref, top)
            c_then, c_else = branches(c_ref, top)
            stack.append((top, key))
            stack.append((None, (f_else, c_else)))
            stack.append((None, (f_then, c_then)))
        else:
            f_then, f_else = branches(f_ref, top)
            c_then, c_else = branches(c_ref, top)
            new_then = cache[(f_then, c_then)]
            new_else = cache[(f_else, c_else)]
            cache[key] = (
                make_node(top, new_then[0], new_else[0]),
                make_node(top, new_then[1], new_else[1]),
            )
    return cache[(f, c)]


def _solve_fmm(
    manager: Manager,
    pairs: Sequence[Pair],
    paths: Dict[Pair, Path],
    criterion: Criterion,
    order_by_degree: bool,
    use_distance_weights: bool,
) -> Dict[Pair, Pair]:
    """Compute the replacement map for one batch of gathered pairs."""
    replacement: Dict[Pair, Pair] = {}
    if len(pairs) < 2:
        return replacement
    mreg = obs_metrics.active()
    if criterion is Criterion.TSM:
        graph = UndirectedMatchingGraph(manager, pairs)
        path_list: Optional[List[Path]] = None
        if use_distance_weights:
            path_list = [paths[pair] for pair in pairs]
        cliques = graph.clique_cover(
            order_by_degree=order_by_degree, paths=path_list
        )
        for clique in cliques:
            if len(clique) < 2:
                continue
            if mreg is not None:
                mreg.inc("levels.cliques_merged")
                mreg.observe("levels.clique_size", len(clique))
            member_pairs = [pairs[index] for index in clique]
            merged_c = manager.or_many(c for _, c in member_pairs)
            merged_f = manager.or_many(
                manager.and_(f, c) for f, c in member_pairs
            )
            for pair in member_pairs:
                replacement[pair] = (merged_f, merged_c)
    else:
        graph = DirectedMatchingGraph(manager, pairs, criterion)
        mapping = graph.representative_map()
        for vertex, sink in mapping.items():
            if vertex != sink:
                if mreg is not None:
                    mreg.inc("levels.dmg_redirections")
                replacement[pairs[vertex]] = pairs[sink]
    return replacement


def minimize_at_level(
    manager: Manager,
    f: int,
    c: int,
    boundary: int,
    criterion: Criterion = Criterion.TSM,
    only_boundary_rooted: bool = False,
    batch_size: Optional[int] = None,
    order_by_degree: bool = True,
    use_distance_weights: bool = True,
) -> Pair:
    """One round of level minimization; returns an i-covering pair.

    ``batch_size`` bounds how many candidate functions are matched
    together (the paper's first set-limiting method); successive batches
    follow depth-first order, so nearby subfunctions stay grouped.
    """
    with obs_trace.span(
        "levels.minimize_at_level",
        boundary=boundary,
        criterion=criterion.name,
    ):
        pairs, paths = gather_at_level(
            manager, f, c, boundary, only_boundary_rooted=only_boundary_rooted
        )
        mreg = obs_metrics.active()
        if mreg is not None:
            mreg.inc("levels.pairs_gathered", len(pairs))
        if len(pairs) < 2:
            return f, c
        replacement: Dict[Pair, Pair] = {}
        if batch_size is None:
            batches = [pairs]
        else:
            batches = [
                pairs[start : start + batch_size]
                for start in range(0, len(pairs), batch_size)
            ]
        for batch in batches:
            replacement.update(
                _solve_fmm(
                    manager,
                    batch,
                    paths,
                    criterion,
                    order_by_degree,
                    use_distance_weights,
                )
            )
        if not replacement:
            return f, c
        return rebuild_with_replacements(manager, f, c, boundary, replacement)


def opt_lv(
    manager: Manager,
    f: int,
    c: int,
    criterion: Criterion = Criterion.TSM,
    order_by_degree: bool = True,
    use_distance_weights: bool = True,
    batch_size: Optional[int] = None,
) -> int:
    """The paper's level-matching heuristic.

    Visits boundaries top-down applying ``criterion`` matching at each
    (the paper uses tsm), then returns the final ``f'`` — a valid cover
    because every step preserves i-covering and ``f'`` covers the final
    pair.  For the degenerate ``c = 0`` returns ``ONE``.
    """
    if c == ZERO:
        return ONE
    support = manager.support_multi((f, c))
    if not support:
        return f
    deepest = max(support)
    current_f, current_c = f, c
    for boundary in range(1, deepest + 2):
        current_f, current_c = minimize_at_level(
            manager,
            current_f,
            current_c,
            boundary,
            criterion=criterion,
            batch_size=batch_size,
            order_by_degree=order_by_degree,
            use_distance_weights=use_distance_weights,
        )
    return current_f
