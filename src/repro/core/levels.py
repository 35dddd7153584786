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
input at every step and ``f'`` covers ``[f', c']``).  It does so in one
pass rather than by calling :func:`minimize_at_level` per boundary,
which re-gathers and rebuilds everything above each boundary: the
gathered pairs are carried from boundary to boundary under a virtual
top, a boundary is solved only when it can change the pair, and ``f'``
is built once at the end.  The schedule's level steps still call
:func:`minimize_at_level` one boundary at a time.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    path_of: Callable[[int], Path],
    criterion: Criterion,
    order_by_degree: bool,
    use_distance_weights: bool,
) -> Dict[Pair, Pair]:
    """Compute the replacement map for one batch of gathered pairs.

    ``path_of`` maps an index into ``pairs`` to that pair's first path;
    it is called only when a distance weight needs the path.
    """
    replacement: Dict[Pair, Pair] = {}
    if len(pairs) < 2:
        return replacement
    mreg = obs_metrics.active()
    if criterion is Criterion.TSM:
        graph = UndirectedMatchingGraph(manager, pairs)
        cliques = graph.clique_cover(
            order_by_degree=order_by_degree,
            paths=path_of if use_distance_weights else None,
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
                    lambda index, batch=batch: paths[batch[index]],
                    criterion,
                    order_by_degree,
                    use_distance_weights,
                )
            )
        if not replacement:
            return f, c
        return rebuild_with_replacements(manager, f, c, boundary, replacement)


class _Frontier:
    """The pair structure above the boundary, carried boundary to boundary.

    Every node has an int id and a ``level``.  A *leaf* id stands for
    one gathered pair (``pair[id]``, rooted at ``level[id]``, at or
    below the boundary); the leaves listed in ``entries`` are exactly
    what :func:`gather_at_level` would return on the rebuilt pair, in
    its discovery order.  Expanding a leaf rooted just above the next
    boundary turns the same id into a *virtual node* ``(level, then
    id, else id)``, so its parents never change.  Virtual nodes are
    hash-consed on that triple, and one whose two halves become equal
    is an alias of its child, exactly as ``make_node`` would treat the
    rebuilt pair; ``forward`` records aliases and merges
    (``forward[id] == id`` for a live id).  ``link`` holds each id's
    first path as a chain ``(parent id, bit)``, so a path is built only
    when a distance weight needs it.
    """

    def __init__(self, manager: Manager, f: int, c: int):
        self.manager = manager
        self.pair: List[Optional[Pair]] = []
        self.level: List[int] = []
        self.kids: List[Optional[Pair]] = []
        self.forward: List[int] = []
        self.parents: List[List[int]] = []
        self.link: List[Optional[Tuple[int, int]]] = []
        self.unique: Dict[Tuple[int, int, int], int] = {}
        root = self._new_leaf((f, c), None)
        self.entries: List[int] = [root]
        self.leaf_of: Dict[Pair, int] = {(f, c): root}

    def _new_leaf(self, pair: Pair, link: Optional[Tuple[int, int]]) -> int:
        index = len(self.pair)
        level = self.manager.level
        self.pair.append(pair)
        self.level.append(min(level(pair[0]), level(pair[1])))
        self.kids.append(None)
        self.forward.append(index)
        self.parents.append([])
        self.link.append(link)
        return index

    def resolve(self, index: int) -> int:
        """The live id that ``index`` was merged into or aliased to."""
        forward = self.forward
        live = index
        while forward[live] != live:
            live = forward[live]
        while forward[index] != live:
            forward[index], index = live, forward[index]
        return live

    def expand(self, level: int) -> None:
        """Split the entries rooted at ``level``: the next boundary's
        entries, each along the first path a fresh gather would take."""
        branches = self.manager.branches
        old_leaf_of = self.leaf_of
        leaf_of: Dict[Pair, int] = {}
        entries: List[int] = []
        for index in self.entries:
            pair = self.pair[index]
            if self.level[index] != level:
                if pair not in leaf_of:
                    leaf_of[pair] = index
                    entries.append(index)
                continue
            f_then, f_else = branches(pair[0], level)
            c_then, c_else = branches(pair[1], level)
            halves = []
            # Else first, as the gather's depth-first walk goes.
            for bit, child in ((0, (f_else, c_else)), (1, (f_then, c_then))):
                child_index = leaf_of.get(child)
                if child_index is None:
                    child_index = old_leaf_of.get(child)
                    if child_index is None:
                        child_index = self._new_leaf(child, (index, bit))
                    else:
                        # An entry further on is reached here first:
                        # this is its first path now.
                        self.link[child_index] = (index, bit)
                    leaf_of[child] = child_index
                    entries.append(child_index)
                self.parents[child_index].append(index)
                halves.append(child_index)
            else_index, then_index = halves
            self.pair[index] = None
            self.kids[index] = (then_index, else_index)
            self.unique[(level, then_index, else_index)] = index
        self.entries = entries
        self.leaf_of = leaf_of

    def apply(self, replacement: Dict[Pair, Pair]) -> None:
        """Substitute the entries, as a rebuild and a fresh gather would.

        The first entry mapped to a pair keeps its id and its path; the
        later ones merge into it.  Merges then propagate upwards: a
        virtual node whose halves now coincide collapses into its
        child, one equal to another node merges into it.
        """
        level = self.manager.level
        leaf_of: Dict[Pair, int] = {}
        entries: List[int] = []
        work: List[int] = []
        for index in self.entries:
            pair = self.pair[index]
            new_pair = replacement.get(pair, pair)
            survivor = leaf_of.get(new_pair)
            if survivor is None:
                leaf_of[new_pair] = index
                entries.append(index)
                if new_pair != pair:
                    self.pair[index] = new_pair
                    self.level[index] = min(
                        level(new_pair[0]), level(new_pair[1])
                    )
            else:
                self._retire(index, survivor, work)
        self.entries = entries
        self.leaf_of = leaf_of
        unique = self.unique
        while work:
            node = work.pop()
            if self.forward[node] != node:
                continue
            then_index, else_index = self.kids[node]
            new_then = self.resolve(then_index)
            new_else = self.resolve(else_index)
            if new_then == then_index and new_else == else_index:
                continue
            node_level = self.level[node]
            key = (node_level, then_index, else_index)
            if unique.get(key) == node:
                del unique[key]
            if new_then == new_else:
                self._retire(node, new_then, work)
                continue
            new_key = (node_level, new_then, new_else)
            twin = unique.get(new_key)
            if twin is None:
                unique[new_key] = node
                self.kids[node] = (new_then, new_else)
            else:
                self._retire(node, twin, work)

    def _retire(self, index: int, survivor: int, work: List[int]) -> None:
        self.forward[index] = survivor
        self.parents[survivor].extend(self.parents[index])
        work.extend(self.parents[index])

    def path(self, index: int, length: int) -> Path:
        """The first path of entry ``index`` over ``length`` levels."""
        path = [PATH_FREE] * length
        link = self.link
        forward = self.forward
        node_level = self.level
        step = link[index]
        while step is not None:
            parent, bit = step
            at = node_level[parent]
            # A collapsed node now forwards to a node or pair below its
            # own level: the rebuilt pair does not test that variable
            # on this path.
            if (
                forward[parent] == parent
                or node_level[self.resolve(parent)] == at
            ):
                path[at] = bit
            step = link[parent]
        return tuple(path)

    def materialize_f(self) -> int:
        """Build the ``f`` half of the carried pair with ``make_node``."""
        make_node = self.manager.make_node
        root = self.resolve(0)
        value: Dict[int, int] = {}
        stack = [root]
        while stack:
            index = stack[-1]
            if index in value:
                stack.pop()
                continue
            kids = self.kids[index]
            if kids is None:
                value[index] = self.pair[index][0]
                stack.pop()
                continue
            then_index = self.resolve(kids[0])
            else_index = self.resolve(kids[1])
            pending = [
                kid for kid in (else_index, then_index) if kid not in value
            ]
            if pending:
                stack.extend(pending)
                continue
            value[index] = make_node(
                self.level[index], value[then_index], value[else_index]
            )
            stack.pop()
        return value[root]


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

    One pass returns what :func:`minimize_at_level` at every boundary
    would: the frontier is carried from one boundary to the next (see
    :class:`_Frontier`), ``f'`` is built once at the end, and a
    boundary is solved only when it can change the pair.  When no
    entry is rooted just above it, a boundary gathers the pairs the
    last solve left, and no two of those match: the greedy clique
    cover leaves no vertex adjacent to a whole clique, and DMG sinks
    have no out-edges.  When the pairs took more than one batch, the
    batches re-slice after a merge, so that holds only when the last
    solve replaced nothing.
    """
    if c == ZERO:
        return ONE
    support = manager.support_multi((f, c))
    if not support:
        return f
    last = max(support) + 1
    frontier = _Frontier(manager, f, c)
    mreg = obs_metrics.active()
    settled = True
    boundary = 1
    while boundary <= last:
        rooted = min(frontier.level[index] for index in frontier.entries)
        if rooted >= boundary:
            if settled:
                boundary = rooted + 1
                continue
        else:
            frontier.expand(boundary - 1)
        entries = frontier.entries
        pairs = [frontier.pair[index] for index in entries]
        if mreg is not None:
            mreg.inc("levels.pairs_gathered", len(pairs))
        replacement: Dict[Pair, Pair] = {}
        size = batch_size or len(pairs)
        for start in range(0, len(pairs), size):
            replacement.update(
                _solve_fmm(
                    manager,
                    pairs[start : start + size],
                    lambda index, start=start, length=boundary: (
                        frontier.path(entries[start + index], length)
                    ),
                    criterion,
                    order_by_degree,
                    use_distance_weights,
                )
            )
        if replacement:
            frontier.apply(replacement)
        settled = not replacement or len(pairs) <= size
        boundary += 1
    return frontier.materialize_f()
