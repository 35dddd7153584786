"""Matching graphs and the FMM solvers (paper Section 3.3.2).

Given a set of incompletely specified functions, the *function matching
minimization* (FMM) problem asks for a minimum set of i-covers.  The
structure depends on the criterion:

* For the transitive, antisymmetric criteria (``osdm``, ``osm``) the
  *directed matching graph* (DMG, Definition 9) is acyclic, and by
  Proposition 10 the sink vertices are exactly a minimum solution —
  every vertex has a direct edge to some sink.
* For the symmetric, non-transitive ``tsm`` the *undirected matching
  graph* (UMG, Definition 13) must be covered by cliques (Theorem 15);
  clique partitioning is NP-complete, so the paper's greedy grower is
  used, with its two proposed optimizations: visiting vertices in
  decreasing degree order, and processing candidate edges in ascending
  order of a path-distance weight so nearby functions (siblings and
  near-siblings) end up in the same clique.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.bdd.manager import Manager
from repro.core.criteria import Criterion, matches
from repro.obs import trace as obs_trace

#: Path entry meaning "this variable does not appear on the path".
PATH_FREE = 2

Path = Tuple[int, ...]


def path_distance(path_g: Path, path_h: Path) -> int:
    """The paper's distance between two functions rooted at a level.

    ``dist(g, h) = Σ |x^g_i − x^h_i| · 2^(k−i−1)`` over positions where
    neither path entry is 2 ("variable absent").  Siblings have
    distance 1; higher positions weigh exponentially more.
    """
    if len(path_g) != len(path_h):
        raise ValueError("paths have different lengths")
    length = len(path_g)
    total = 0
    for position, (g_bit, h_bit) in enumerate(zip(path_g, path_h)):
        if g_bit == PATH_FREE or h_bit == PATH_FREE:
            continue
        if g_bit != h_bit:
            total += 1 << (length - position - 1)
    return total


class DirectedMatchingGraph:
    """DMG over distinct incompletely specified functions (osm/osdm)."""

    def __init__(
        self,
        manager: Manager,
        functions: Sequence[Tuple[int, int]],
        criterion: Criterion = Criterion.OSM,
    ):
        if criterion is Criterion.TSM:
            raise ValueError("tsm needs the undirected matching graph")
        self.manager = manager
        self.functions = list(functions)
        self.criterion = criterion
        count = len(self.functions)
        self.successors: List[Set[int]] = [set() for _ in range(count)]
        for j in range(count):
            f_j, c_j = self.functions[j]
            for k in range(count):
                if j == k:
                    continue
                f_k, c_k = self.functions[k]
                if matches(criterion, manager, f_j, c_j, f_k, c_k):
                    self.successors[j].add(k)
        # Definition 9 requires *distinct* incompletely specified
        # functions: a mutual osm match means the two i-specs are equal
        # (same care set, same care values) even when their f
        # representatives differ as BDDs.  Orient such 2-cycles from the
        # lower to the higher index so the graph stays acyclic and the
        # equivalence class collapses onto one representative.
        for j in range(count):
            for k in list(self.successors[j]):
                if k < j and j in self.successors[k]:
                    self.successors[j].discard(k)

    def sinks(self) -> List[int]:
        """Vertices with no outgoing edge — the minimum FMM solution."""
        return [
            vertex
            for vertex, out in enumerate(self.successors)
            if not out
        ]

    def representative_map(self) -> Dict[int, int]:
        """Map every vertex to a sink it matches (itself, for sinks).

        Correctness relies on transitivity: any path to a sink implies a
        direct edge to it, so scanning the successor set for a sink
        always succeeds.
        """
        with obs_trace.span(
            "dmg.dfs_to_sinks", vertices=len(self.functions)
        ):
            sink_set = set(self.sinks())
            mapping: Dict[int, int] = {}
            for vertex in range(len(self.functions)):
                if vertex in sink_set:
                    mapping[vertex] = vertex
                    continue
                chosen = None
                for successor in self.successors[vertex]:
                    if successor in sink_set:
                        chosen = successor
                        break
                if chosen is None:
                    # Distinct i-specs + transitivity make the DMG
                    # acyclic, so this cannot happen; guard for safety.
                    raise RuntimeError("DMG vertex with no edge to a sink")
                mapping[vertex] = chosen
            return mapping


class UndirectedMatchingGraph:
    """UMG over incompletely specified functions (tsm)."""

    def __init__(
        self,
        manager: Manager,
        functions: Sequence[Tuple[int, int]],
    ):
        self.manager = manager
        self.functions = list(functions)
        count = len(self.functions)
        self.neighbors: List[Set[int]] = [set() for _ in range(count)]
        # An edge is tsm_matches, the one agree call.
        agree = manager.agree
        for j in range(count):
            f_j, c_j = self.functions[j]
            for k in range(j + 1, count):
                f_k, c_k = self.functions[k]
                if agree(f_j, f_k, c_j, c_k):
                    self.neighbors[j].add(k)
                    self.neighbors[k].add(j)

    def clique_cover(
        self,
        order_by_degree: bool = True,
        paths: Optional[Callable[[int], Path]] = None,
    ) -> List[List[int]]:
        """Greedy clique cover (the paper's algorithm + optimizations).

        ``order_by_degree`` processes seed vertices in decreasing degree
        order (first optimization); ``paths`` maps a vertex to its path
        and enables the ascending distance-weight edge ordering (second
        optimization).  Returns a partition of the vertices into
        cliques.
        """
        count = len(self.functions)
        if order_by_degree:
            order = sorted(
                range(count),
                key=lambda v: (-len(self.neighbors[v]), v),
            )
        else:
            order = list(range(count))
        covered = [False] * count
        cliques: List[List[int]] = []
        path_cache: Dict[int, Path] = {}
        with obs_trace.span("umg.clique_cover", vertices=count):
            for seed in order:
                if covered[seed]:
                    continue
                clique = [seed]
                covered[seed] = True
                # The uncovered vertices adjacent to every member: the
                # only ones a grow step may add.
                qualifying = {
                    v for v in self.neighbors[seed] if not covered[v]
                }
                with obs_trace.span("umg.clique_round", seed=seed):
                    while qualifying:
                        chosen = self._grow_step(
                            clique, qualifying, paths, path_cache
                        )
                        clique.append(chosen)
                        covered[chosen] = True
                        qualifying &= self.neighbors[chosen]
                cliques.append(clique)
        return cliques

    @staticmethod
    def _grow_step(
        clique: List[int],
        qualifying: Set[int],
        paths: Optional[Callable[[int], Path]],
        path_cache: Dict[int, Path],
    ) -> int:
        """The vertex the paper's grower adds next.

        Candidate edges (member, neighbor) are taken in ascending
        ``(weight, member, neighbor)`` order and the first whose
        neighbor is adjacent to the whole clique wins.  Every member is
        adjacent to every qualifying vertex, so the winner is the
        minimum over members x qualifying vertices; distances are
        computed only when two or more vertices qualify.
        """
        if len(qualifying) == 1 or paths is None:
            return min(qualifying)

        def path(vertex: int) -> Path:
            found = path_cache.get(vertex)
            if found is None:
                found = path_cache[vertex] = paths(vertex)
            return found

        best = min(
            (path_distance(path(member), path(neighbor)), member, neighbor)
            for member in clique
            for neighbor in qualifying
        )
        return best[2]

    def is_clique(self, vertices: Sequence[int]) -> bool:
        """Check pairwise adjacency (used by tests)."""
        for position, u in enumerate(vertices):
            for w in vertices[position + 1 :]:
                if w not in self.neighbors[u]:
                    return False
        return True
