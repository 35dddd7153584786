"""Tests for variable reordering: transfer, sifting, exhaustive search."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd.manager import Manager, ONE, ZERO
from repro.bdd.parser import parse_expression
from repro.bdd.truthtable import bdd_from_leaves, leaves_from_bdd
from repro.bdd.reorder import (
    exhaustive_order_search,
    reorder,
    shared_size,
    sift,
    transfer,
)


def interleaved_vs_blocked():
    """The classic ordering example: x1·y1 + x2·y2 + x3·y3.

    Blocked order (all x then all y) is exponential; interleaved is
    linear.
    """
    manager = Manager(["x1", "x2", "x3", "y1", "y2", "y3"])
    f = parse_expression(manager, "(x1 & y1) | (x2 & y2) | (x3 & y3)")
    return manager, f


class TestTransfer:
    def test_identity_transfer(self):
        manager, f = interleaved_vs_blocked()
        target = Manager(manager.var_names)
        (copy,) = transfer(manager, target, [f])
        # Same order -> structurally identical BDD (node indices may
        # differ between managers, so compare shape, not raw refs).
        assert target.size(copy) == manager.size(f)
        assert target.level_profile(copy) == manager.level_profile(f)

    def test_semantics_preserved(self):
        manager, f = interleaved_vs_blocked()
        target = Manager(["y3", "x1", "y2", "x3", "y1", "x2"])
        (copy,) = transfer(manager, target, [f])
        # Compare via named evaluation on a few assignments.
        cases = [
            {"x1": 1, "y1": 1, "x2": 0, "y2": 0, "x3": 0, "y3": 0},
            {"x1": 1, "y1": 0, "x2": 1, "y2": 1, "x3": 0, "y3": 0},
            {"x1": 0, "y1": 0, "x2": 0, "y2": 0, "x3": 0, "y3": 0},
            {"x1": 0, "y1": 1, "x2": 0, "y2": 1, "x3": 1, "y3": 1},
        ]
        for case in cases:
            source_env = {
                manager.level_of_var(name): bool(value)
                for name, value in case.items()
            }
            target_env = {
                target.level_of_var(name): bool(value)
                for name, value in case.items()
            }
            assert manager.eval(f, source_env) == target.eval(copy, target_env)

    def test_chain_deeper_than_recursion_limit(self):
        depth = sys.getrecursionlimit() + 200
        manager = Manager()
        manager.ensure_vars(depth)
        chain = ONE
        for level in range(depth - 1, -1, -1):
            chain = manager.make_node(level, chain, ZERO)
        target = Manager(manager.var_names)
        copy, complemented = transfer(manager, target, [chain, chain ^ 1])
        assert target.size(copy) == depth + 1
        assert complemented == copy ^ 1

    def test_complement_edges_transfer(self):
        manager = Manager(["a", "b"])
        f = parse_expression(manager, "~(a & b)")
        target = Manager(["b", "a"])
        (copy,) = transfer(manager, target, [f])
        assert target.eval(copy, {0: True, 1: True}) is False
        assert target.eval(copy, {0: False, 1: True}) is True


class TestReorder:
    def test_interleaving_shrinks(self):
        manager, f = interleaved_vs_blocked()
        good, (f_good,) = reorder(
            manager, [f], ["x1", "y1", "x2", "y2", "x3", "y3"]
        )
        assert good.size(f_good) < manager.size(f)

    def test_bad_permutation_rejected(self):
        manager, f = interleaved_vs_blocked()
        with pytest.raises(ValueError):
            reorder(manager, [f], ["x1", "x2"])
        with pytest.raises(ValueError):
            reorder(manager, [f], ["x1"] * 6)

    def test_original_untouched(self):
        manager, f = interleaved_vs_blocked()
        before = manager.size(f)
        reorder(manager, [f], list(reversed(manager.var_names)))
        assert manager.size(f) == before


class TestSift:
    def test_sift_finds_interleaved_order(self):
        manager, f = interleaved_vs_blocked()
        sifted_manager, (sifted_f,), order = sift(manager, [f])
        assert sifted_manager.size(sifted_f) < manager.size(f)
        # The linear-size orders pair each x_i with its y_i: one node
        # per variable plus the terminal (complement edges share).
        assert sifted_manager.size(sifted_f) == 7

    def test_sift_never_grows(self):
        manager = Manager(["a", "b", "c", "d"])
        f = parse_expression(manager, "(a & b) | (c & d)")
        sifted_manager, (sifted_f,), _ = sift(manager, [f])
        assert sifted_manager.size(sifted_f) <= manager.size(f)

    def test_sift_multiple_roots(self):
        manager, f = interleaved_vs_blocked()
        g = parse_expression(manager, "x1 ^ y1")
        sifted_manager, sifted_refs, _ = sift(manager, [f, g])
        assert shared_size(sifted_manager, sifted_refs) <= shared_size(
            manager, [f, g]
        )


class TestExhaustive:
    def test_matches_or_beats_sifting(self):
        manager = Manager(["x1", "x2", "y1", "y2"])
        f = parse_expression(manager, "(x1 & y1) | (x2 & y2)")
        exact_manager, (exact_f,), _ = exhaustive_order_search(manager, [f])
        sift_manager, (sift_f,), _ = sift(manager, [f])
        assert exact_manager.size(exact_f) <= sift_manager.size(sift_f)

    def test_budget_enforced(self):
        manager = Manager(["v%d" % i for i in range(9)])
        f = manager.var(0)
        with pytest.raises(ValueError):
            exhaustive_order_search(manager, [f])


class TestCompact:
    def test_dead_nodes_dropped(self):
        from repro.bdd.reorder import compact

        manager = Manager(["a", "b", "c", "d"])
        keep = parse_expression(manager, "a & b")
        # Create garbage the live function does not use.
        for _ in range(3):
            parse_expression(manager, "(a ^ b) | (c & d) | (a & ~d)")
        fresh, (copy,) = compact(manager, [keep])
        assert fresh.num_nodes < manager.num_nodes
        assert fresh.size(copy) == manager.size(keep)
        assert fresh.var_names == manager.var_names

    def test_compact_preserves_semantics(self):
        from repro.bdd.reorder import compact

        manager = Manager(["a", "b"])
        f = parse_expression(manager, "a ^ b")
        fresh, (copy,) = compact(manager, [f])
        for a in (False, True):
            for b in (False, True):
                assert fresh.eval(copy, {0: a, 1: b}) == (a != b)


@given(st.lists(st.booleans(), min_size=16, max_size=16))
@settings(max_examples=20, deadline=None)
def test_reorder_roundtrip_semantics(table):
    """Reordering then reordering back reproduces the truth table."""
    manager = Manager()
    f = bdd_from_leaves(manager, table)
    manager.ensure_vars(4)
    names = list(manager.var_names)
    shuffled = names[::-1]
    target, (copy,) = reorder(manager, [f], shuffled)
    back, (restored,) = reorder(target, [copy], names)
    assert leaves_from_bdd(back, restored, 4) == table
