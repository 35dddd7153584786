"""Textbook forms: the reference the explicit-stack walks must match.

``repro.core`` runs Figure 2, the windowed sibling pass and the §3.3
rebuild on explicit stacks.  The plain recursive forms below state the
same algorithms the way the paper (and Coudert et al. for constrain and
restrict) write them.  They visit pairs in the same order, so on
identically built managers both sides must return the *same refs*, not
merely equivalent functions.  Being recursive, they are only for
instances shallower than the interpreter recursion limit.

``opt_lv`` is the per-boundary loop that the one-pass
``repro.core.levels.opt_lv`` replaced: ``minimize_at_level`` at every
boundary, top-down.

``AgreeWalk`` is ``Manager.agree``'s walk as it first shipped: one loop
that pops every state, root included, and pushes both cofactor states.
It expands the states the shipped kernel expands, in the same order,
fires the same events and writes the same memo, and counts the states
itself.
"""

from typing import Dict, List, Optional, Set, Tuple

from repro.bdd.manager import EVENT_ITE, Manager, ONE, ZERO, TERMINAL_LEVEL
from repro.core.criteria import Criterion, try_match
from repro.core.levels import minimize_at_level
from repro.core.matching_graph import PATH_FREE, path_distance

Pair = Tuple[int, int]


def constrain(manager: Manager, f: int, c: int) -> int:
    """The constrain operator (generalized cofactor) of Coudert et al."""
    if c == ZERO:
        return ONE
    cache: Dict[Pair, int] = {}

    def walk(f_ref: int, c_ref: int) -> int:
        if c_ref == ONE or manager.is_constant(f_ref):
            return f_ref
        key = (f_ref, c_ref)
        cached = cache.get(key)
        if cached is not None:
            return cached
        top = min(manager.level(f_ref), manager.level(c_ref))
        f_then, f_else = manager.branches(f_ref, top)
        c_then, c_else = manager.branches(c_ref, top)
        if c_else == ZERO:
            result = walk(f_then, c_then)
        elif c_then == ZERO:
            result = walk(f_else, c_else)
        else:
            result = manager.make_node(
                top, walk(f_then, c_then), walk(f_else, c_else)
            )
        cache[key] = result
        return result

    return walk(f, c)


def restrict(manager: Manager, f: int, c: int) -> int:
    """The restrict operator of Coudert et al.

    Like constrain, but when ``f`` is independent of the splitting
    variable the variable is existentially quantified out of ``c``.
    """
    if c == ZERO:
        return ONE
    cache: Dict[Pair, int] = {}

    def walk(f_ref: int, c_ref: int) -> int:
        if c_ref == ONE or manager.is_constant(f_ref):
            return f_ref
        key = (f_ref, c_ref)
        cached = cache.get(key)
        if cached is not None:
            return cached
        f_level = manager.level(f_ref)
        c_level = manager.level(c_ref)
        top = min(f_level, c_level)
        f_then, f_else = manager.branches(f_ref, top)
        c_then, c_else = manager.branches(c_ref, top)
        if f_level > top:
            result = walk(f_ref, manager.or_(c_then, c_else))
        elif c_else == ZERO:
            result = walk(f_then, c_then)
        elif c_then == ZERO:
            result = walk(f_else, c_else)
        else:
            result = manager.make_node(
                top, walk(f_then, c_then), walk(f_else, c_else)
            )
        cache[key] = result
        return result

    return walk(f, c)


def sibling_pass(
    manager: Manager,
    f: int,
    c: int,
    criterion: Criterion,
    match_complement: bool = False,
    no_new_vars: bool = False,
    lo: int = 0,
    hi: int = TERMINAL_LEVEL,
) -> Pair:
    """Figure 2 with pair results, matching only at levels in ``[lo, hi)``."""
    cache: Dict[Pair, Pair] = {}

    def split(top: int, new_then: Pair, new_else: Pair) -> Pair:
        return (
            manager.make_node(top, new_then[0], new_else[0]),
            manager.make_node(top, new_then[1], new_else[1]),
        )

    def walk(f_ref: int, c_ref: int) -> Pair:
        if c_ref == ONE or c_ref == ZERO or manager.is_constant(f_ref):
            return f_ref, c_ref
        key = (f_ref, c_ref)
        cached = cache.get(key)
        if cached is not None:
            return cached
        f_level = manager.level(f_ref)
        top = min(f_level, manager.level(c_ref))
        if top >= hi:
            cache[key] = key
            return key
        f_then, f_else = manager.branches(f_ref, top)
        c_then, c_else = manager.branches(c_ref, top)
        if top < lo:
            result = split(top, walk(f_then, c_then), walk(f_else, c_else))
        elif no_new_vars and f_level > top:
            result = walk(f_ref, manager.or_(c_then, c_else))
        else:
            match = try_match(
                criterion, manager, f_then, c_then, f_else, c_else
            )
            complement_match = None
            if match is None and match_complement:
                complement_match = try_match(
                    criterion,
                    manager,
                    f_then,
                    c_then,
                    f_else,
                    c_else,
                    complemented=True,
                )
            if match is not None:
                result = walk(*match)
            elif complement_match is not None:
                branch_f, branch_c = walk(*complement_match)
                result = (
                    manager.make_node(top, branch_f, branch_f ^ 1),
                    branch_c,
                )
            else:
                result = split(
                    top, walk(f_then, c_then), walk(f_else, c_else)
                )
        cache[key] = result
        return result

    return walk(f, c)


def gather_at_level(
    manager: Manager, f: int, c: int, boundary: int
) -> Tuple[List[Pair], Dict[Pair, Tuple[int, ...]]]:
    """§3.3 step 1: pairs below ``boundary``, depth-first, else first."""
    pairs: List[Pair] = []
    paths: Dict[Pair, Tuple[int, ...]] = {}
    visited = set()

    def walk(f_ref: int, c_ref: int, path: Tuple[int, ...]) -> None:
        key = (f_ref, c_ref)
        if key in visited:
            return
        visited.add(key)
        top = min(manager.level(f_ref), manager.level(c_ref))
        if top >= boundary:
            pairs.append(key)
            paths[key] = path + (PATH_FREE,) * (boundary - len(path))
            return
        f_then, f_else = manager.branches(f_ref, top)
        c_then, c_else = manager.branches(c_ref, top)
        prefix = path + (PATH_FREE,) * (top - len(path))
        walk(f_else, c_else, prefix + (0,))
        walk(f_then, c_then, prefix + (1,))

    walk(f, c, ())
    return pairs, paths


def rebuild_with_replacements(
    manager: Manager,
    f: int,
    c: int,
    boundary: int,
    replacement: Dict[Pair, Pair],
) -> Pair:
    """§3.3 step 3: substitute boundary pairs, rebuild the levels above."""
    cache: Dict[Pair, Pair] = {}

    def walk(f_ref: int, c_ref: int) -> Pair:
        key = (f_ref, c_ref)
        cached = cache.get(key)
        if cached is not None:
            return cached
        top = min(manager.level(f_ref), manager.level(c_ref))
        if top >= boundary:
            result = replacement.get(key, key)
        else:
            f_then, f_else = manager.branches(f_ref, top)
            c_then, c_else = manager.branches(c_ref, top)
            new_then = walk(f_then, c_then)
            new_else = walk(f_else, c_else)
            result = (
                manager.make_node(top, new_then[0], new_else[0]),
                manager.make_node(top, new_then[1], new_else[1]),
            )
        cache[key] = result
        return result

    return walk(f, c)


def opt_lv(
    manager: Manager,
    f: int,
    c: int,
    criterion: Criterion = Criterion.TSM,
    order_by_degree: bool = True,
    use_distance_weights: bool = True,
    batch_size: Optional[int] = None,
) -> int:
    """§3.3's opt_lv as stated: level matching at every boundary, top-down.

    Each boundary gathers, matches and rebuilds the whole pair with
    ``minimize_at_level``, the reference the one-pass ``opt_lv`` must
    reproduce ref for ref.
    """
    if c == ZERO:
        return ONE
    support = manager.support_multi((f, c))
    if not support:
        return f
    for boundary in range(1, max(support) + 2):
        f, c = minimize_at_level(
            manager,
            f,
            c,
            boundary,
            criterion=criterion,
            batch_size=batch_size,
            order_by_degree=order_by_degree,
            use_distance_weights=use_distance_weights,
        )
    return f


def clique_cover(
    neighbors: List[set],
    order_by_degree: bool = True,
    paths: Optional[List[Tuple[int, ...]]] = None,
) -> List[List[int]]:
    """The paper's greedy clique cover with a full sort per grow step.

    Every grow step lists the edges (member, uncovered neighbor), sorts
    them by (distance weight, member, neighbor) and adds the first
    neighbor adjacent to the whole clique.
    """
    count = len(neighbors)
    order = list(range(count))
    if order_by_degree:
        order.sort(key=lambda v: (-len(neighbors[v]), v))
    covered = [False] * count
    cliques: List[List[int]] = []
    for seed in order:
        if covered[seed]:
            continue
        clique = [seed]
        covered[seed] = True
        while True:
            edges = []
            for member in clique:
                for neighbor in neighbors[member]:
                    if covered[neighbor]:
                        continue
                    weight = 0
                    if paths is not None:
                        weight = path_distance(paths[member], paths[neighbor])
                    edges.append((weight, member, neighbor))
            edges.sort()
            for _, _, candidate in edges:
                if set(clique) <= neighbors[candidate] | {candidate}:
                    clique.append(candidate)
                    covered[candidate] = True
                    break
            else:
                break
        cliques.append(clique)
    return cliques


class AgreeWalk:
    """The reference ``agree``: call it as ``manager.agree`` is called.

    Assigning an instance to ``manager.agree`` installs it for that
    manager, ``leq`` included.  ``steps`` counts the states it has
    expanded, an aborted walk's too.
    """

    def __init__(self, manager: Manager):
        self.manager = manager
        self.steps = 0

    def __call__(self, f: int, g: int, c: int, d: int = ONE) -> bool:
        manager = self.manager
        memo = manager.cache("agree")
        expanded: Set[Tuple[int, int, int, int]] = set()
        stack = [(f, g, c, d)]
        root = None
        while stack:
            f, g, c, d = stack.pop()
            if f == g or c == ZERO or d == ZERO:
                continue
            # The care pair: d is ONE unless both are proper and
            # distinct, and then c > d.
            if c == d:
                d = ONE
            elif c == (d ^ 1):
                continue
            elif c == ONE:
                c, d = d, ONE
            elif c < d:
                c, d = d, c
            if c == ONE:
                break
            # The pair: f < g with f regular.
            if f > g:
                f, g = g, f
            if f & 1:
                f ^= 1
                g ^= 1
            if f == ONE and (g == c or g == d):
                continue
            if f == (g ^ 1) and d == ONE:
                break
            key = (f, g, c, d)
            if key in expanded:
                continue
            known = memo.get(key)
            if known is not None:
                if known:
                    continue
                break
            self.steps += 1
            hook = manager.step_hook
            if hook is not None:
                hook(EVENT_ITE)
            expanded.add(key)
            if root is None:
                root = key
            top = min(manager.level(ref) for ref in key)
            cofactors = [manager.branches(ref, top) for ref in key]
            stack.append(tuple(branch[1] for branch in cofactors))
            stack.append(tuple(branch[0] for branch in cofactors))
        else:
            memo.update(dict.fromkeys(expanded, True))
            return True
        if root is not None:
            memo[root] = False
        return False
