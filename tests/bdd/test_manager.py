"""Unit tests for the manager's node structure and operator core."""

import gc

import pytest

from repro.bdd.manager import Manager, ONE, ZERO, TERMINAL_LEVEL


class TestConstants:
    def test_one_and_zero_are_complements(self):
        assert ONE ^ 1 == ZERO

    def test_constants_are_constant(self):
        manager = Manager()
        assert manager.is_constant(ONE)
        assert manager.is_constant(ZERO)

    def test_terminal_level_is_sentinel(self):
        manager = Manager()
        assert manager.level(ONE) == TERMINAL_LEVEL
        assert manager.level(ZERO) == TERMINAL_LEVEL


class TestVariables:
    def test_new_var_returns_positive_literal(self):
        manager = Manager()
        x = manager.new_var("x")
        assert manager.level(x) == 0
        assert manager.eval(x, {0: True})
        assert not manager.eval(x, {0: False})

    def test_var_by_name_and_level(self):
        manager = Manager(["a", "b"])
        assert manager.var("a") == manager.var(0)
        assert manager.var("b") == manager.var(1)

    def test_duplicate_name_rejected(self):
        manager = Manager(["a"])
        with pytest.raises(ValueError):
            manager.new_var("a")

    def test_unknown_name_rejected(self):
        manager = Manager(["a"])
        with pytest.raises(KeyError):
            manager.var("zz")
        with pytest.raises(IndexError):
            manager.var(5)

    def test_anonymous_names(self):
        manager = Manager()
        manager.new_var()
        manager.new_var()
        assert manager.var_names == ("x1", "x2")

    def test_ensure_vars(self):
        manager = Manager(["a"])
        manager.ensure_vars(3)
        assert manager.num_vars == 3


class TestMakeNode:
    def test_deletion_rule(self):
        manager = Manager(["a"])
        assert manager.make_node(0, ONE, ONE) == ONE
        assert manager.make_node(0, ZERO, ZERO) == ZERO

    def test_merging_rule(self):
        manager = Manager(["a", "b"])
        first = manager.make_node(1, ONE, ZERO)
        second = manager.make_node(1, ONE, ZERO)
        assert first == second

    def test_complement_normalization(self):
        """Then-edges are regular; complements move to the output."""
        manager = Manager(["a"])
        positive = manager.make_node(0, ONE, ZERO)
        negative = manager.make_node(0, ZERO, ONE)
        assert positive == negative ^ 1

    def test_negation_shares_structure(self):
        manager = Manager(["a", "b"])
        f = manager.and_(manager.var(0), manager.var(1))
        assert manager.size(f) == manager.size(f ^ 1)
        assert manager.nodes_reachable((f,)) == manager.nodes_reachable((f ^ 1,))


class TestIte:
    def test_terminal_cases(self):
        manager = Manager(["a", "b"])
        a, b = manager.var(0), manager.var(1)
        assert manager.ite(ONE, a, b) == a
        assert manager.ite(ZERO, a, b) == b
        assert manager.ite(a, ONE, ZERO) == a
        assert manager.ite(a, ZERO, ONE) == a ^ 1
        assert manager.ite(a, b, b) == b

    def test_basic_connectives_truth_tables(self):
        manager = Manager(["a", "b"])
        a, b = manager.var(0), manager.var(1)
        cases = {
            (False, False): (False, False, False),
            (False, True): (False, True, True),
            (True, False): (False, True, True),
            (True, True): (True, True, False),
        }
        for (va, vb), (and_v, or_v, xor_v) in cases.items():
            env = {0: va, 1: vb}
            assert manager.eval(manager.and_(a, b), env) == and_v
            assert manager.eval(manager.or_(a, b), env) == or_v
            assert manager.eval(manager.xor(a, b), env) == xor_v
            assert manager.eval(manager.and_(a, b) ^ 1, env) == (not and_v)

    def test_xnor_and_implies(self):
        manager = Manager(["a", "b"])
        a, b = manager.var(0), manager.var(1)
        assert manager.xnor(a, b) == manager.xor(a, b) ^ 1
        assert manager.implies(a, b) == manager.or_(a ^ 1, b)

    def test_ite_is_canonical(self):
        """Same function built different ways gives the same ref."""
        manager = Manager(["a", "b", "c"])
        a, b, c = (manager.var(level) for level in range(3))
        first = manager.or_(manager.and_(a, b), manager.and_(a, c))
        second = manager.and_(a, manager.or_(b, c))
        assert first == second

    def test_demorgan(self):
        manager = Manager(["a", "b"])
        a, b = manager.var(0), manager.var(1)
        assert manager.and_(a, b) ^ 1 == manager.or_(a ^ 1, b ^ 1)

    def test_many_variants(self):
        manager = Manager(["a", "b", "c"])
        refs = [manager.var(level) for level in range(3)]
        assert manager.and_many(refs) == manager.and_(
            refs[0], manager.and_(refs[1], refs[2])
        )
        assert manager.or_many(refs) == manager.or_(
            refs[0], manager.or_(refs[1], refs[2])
        )
        assert manager.and_many([]) == ONE
        assert manager.or_many([]) == ZERO

    def test_leq(self):
        manager = Manager(["a", "b"])
        a, b = manager.var(0), manager.var(1)
        ab = manager.and_(a, b)
        assert manager.leq(ab, a)
        assert not manager.leq(a, ab)
        assert manager.leq(ZERO, ab)
        assert manager.leq(ab, ONE)


class TestBranches:
    def test_branches_at_root_level(self):
        manager = Manager(["a", "b"])
        a, b = manager.var(0), manager.var(1)
        f = manager.ite(a, b, b ^ 1)
        then_f, else_f = manager.branches(f, 0)
        assert then_f == b
        assert else_f == b ^ 1

    def test_branches_below_level_identity(self):
        """Mirrors bdd_get_branches in Figure 2: independent var."""
        manager = Manager(["a", "b"])
        b = manager.var(1)
        assert manager.branches(b, 0) == (b, b)

    def test_branches_propagate_complement(self):
        manager = Manager(["a", "b"])
        a, b = manager.var(0), manager.var(1)
        f = manager.and_(a, b)
        then_f, else_f = manager.branches(f ^ 1, 0)
        assert then_f == b ^ 1
        assert else_f == ONE


class TestCofactorQuantify:
    def test_cofactor(self):
        manager = Manager(["a", "b"])
        a, b = manager.var(0), manager.var(1)
        f = manager.xor(a, b)
        assert manager.cofactor(f, 0, True) == b ^ 1
        assert manager.cofactor(f, 0, False) == b
        assert manager.cofactor(f, 1, True) == a ^ 1

    def test_restrict_cube(self):
        manager = Manager(["a", "b", "c"])
        a, b, c = (manager.var(level) for level in range(3))
        f = manager.and_many([a, b, c])
        assert manager.restrict_cube(f, {0: True, 1: True}) == c
        assert manager.restrict_cube(f, {0: False}) == ZERO

    def test_exists(self):
        manager = Manager(["a", "b"])
        a, b = manager.var(0), manager.var(1)
        f = manager.and_(a, b)
        assert manager.exists(f, [0]) == b
        assert manager.exists(f, [0, 1]) == ONE
        assert manager.exists(ZERO, [0]) == ZERO

    def test_forall(self):
        manager = Manager(["a", "b"])
        a, b = manager.var(0), manager.var(1)
        f = manager.or_(a, b)
        assert manager.forall(f, [0]) == b
        assert manager.forall(f, [0, 1]) == ZERO

    def test_exists_forall_duality(self):
        manager = Manager(["a", "b", "c"])
        a, b, c = (manager.var(level) for level in range(3))
        f = manager.ite(a, b, c)
        assert manager.exists(f, [1]) == (manager.forall(f ^ 1, [1]) ^ 1)

    def test_and_exists_equals_composed(self):
        manager = Manager(["a", "b", "c"])
        a, b, c = (manager.var(level) for level in range(3))
        f = manager.or_(a, b)
        g = manager.ite(b, c, a)
        expected = manager.exists(manager.and_(f, g), [1])
        assert manager.and_exists(f, g, [1]) == expected
        # Several level sets share the memo tables, interleaved across
        # a cache flush and a collection (the rotation hands each set a
        # different memo id after the flush); every result must match
        # cofactor expansion.
        d, e = manager.new_var("d"), manager.new_var("e")
        functions = [
            f,
            g,
            manager.xor(c, manager.and_(d, e)),
            manager.ite(e, d ^ 1, manager.or_(a, c)),
        ]
        level_sets = [(1,), (0, 2), (1, 3, 4), (4,), (0, 1, 2, 3, 4)]

        def expand(h, levels, combine):
            for level in levels:
                h = combine(
                    manager.cofactor(h, level, True),
                    manager.cofactor(h, level, False),
                )
            return h

        for phase in range(3):
            if phase == 1:
                manager.clear_caches()
            elif phase == 2:
                manager.gc(functions)
            rotated = level_sets[phase:] + level_sets[:phase]
            for levels in rotated:
                for index, h in enumerate(functions):
                    k = functions[(index + 1) % len(functions)]
                    assert manager.exists(h, levels) == expand(
                        h, levels, manager.or_
                    )
                    assert manager.forall(h, levels) == expand(
                        h, levels, manager.and_
                    )
                    assert manager.and_exists(h, k, levels) == expand(
                        manager.and_(h, k), levels, manager.or_
                    )
        # Memo keys hold ints only, so the cyclic collector untracks
        # them instead of re-walking every entry on each full pass.
        gc.collect()
        for name in ("exists", "forall", "and_exists"):
            keys = list(manager.cache(name))
            assert keys
            assert not [key for key in keys if gc.is_tracked(key)]

    def test_quantify_empty_set_is_identity(self):
        manager = Manager(["a"])
        a = manager.var(0)
        assert manager.exists(a, []) == a
        assert manager.forall(a, []) == a


class TestCompose:
    def test_compose_variable(self):
        manager = Manager(["a", "b", "c"])
        a, b, c = (manager.var(level) for level in range(3))
        f = manager.and_(a, b)
        composed = manager.compose(f, 1, manager.or_(b, c))
        assert composed == manager.and_(a, manager.or_(b, c))

    def test_vector_compose_is_simultaneous(self):
        """Swapping variables must not cascade sequentially."""
        manager = Manager(["a", "b"])
        a, b = manager.var(0), manager.var(1)
        f = manager.and_(a, b ^ 1)
        swapped = manager.vector_compose(f, {0: b, 1: a})
        assert swapped == manager.and_(b, a ^ 1)

    def test_rename(self):
        manager = Manager(["a", "b", "c", "d"])
        a, b = manager.var(0), manager.var(1)
        f = manager.and_(a, b)
        renamed = manager.rename(f, {0: 2, 1: 3})
        assert renamed == manager.and_(manager.var(2), manager.var(3))


class TestCounting:
    def test_size_includes_terminal(self):
        """The paper's |f| counts the constant node."""
        manager = Manager(["a"])
        assert manager.size(ONE) == 1
        assert manager.size(manager.var(0)) == 2

    def test_size_multi_shares(self):
        manager = Manager(["a", "b"])
        a, b = manager.var(0), manager.var(1)
        f = manager.and_(a, b)
        assert manager.size_multi([f, f]) == manager.size(f)
        assert manager.size_multi([f, b]) == manager.size(f)

    def test_support(self):
        manager = Manager(["a", "b", "c"])
        a, c = manager.var(0), manager.var(2)
        f = manager.xor(a, c)
        assert manager.support(f) == {0, 2}
        assert manager.support(ONE) == set()

    def test_sat_count(self):
        manager = Manager(["a", "b", "c"])
        a, b = manager.var(0), manager.var(1)
        assert manager.sat_count(ONE) == 8
        assert manager.sat_count(ZERO) == 0
        assert manager.sat_count(a) == 4
        assert manager.sat_count(manager.and_(a, b)) == 2
        assert manager.sat_count(manager.xor(a, b)) == 4

    def test_sat_count_explicit_width(self):
        manager = Manager(["a", "b"])
        assert manager.sat_count(manager.var(0), 1) == 1

    def test_nodes_below(self):
        manager = Manager(["a", "b", "c"])
        a, b, c = (manager.var(level) for level in range(3))
        f = manager.and_many([a, b, c])
        # Below level 0: the b and c nodes plus the terminal.
        assert manager.nodes_below(f, 0) == 3
        assert manager.nodes_below(f, 2) == 1  # just the terminal

    def test_level_profile(self):
        manager = Manager(["a", "b"])
        f = manager.xor(manager.var(0), manager.var(1))
        profile = manager.level_profile(f)
        assert profile[0] == 1
        assert profile[1] == 1


class TestCaches:
    def test_named_cache_identity(self):
        manager = Manager()
        assert manager.cache("x") is manager.cache("x")

    def test_clear_caches_preserves_results(self):
        manager = Manager(["a", "b"])
        a, b = manager.var(0), manager.var(1)
        before = manager.and_(a, b)
        manager.clear_caches()
        assert manager.and_(a, b) == before
