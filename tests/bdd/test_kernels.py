"""The iterative operator kernels: deep chains, no recursion games.

Acceptance tests for the explicit-stack rewrite of ``ite``,
``cofactor`` and ``_quantify``: a 5,000-variable chain BDD must go
through every operator under the *default* interpreter recursion limit,
``sys.setrecursionlimit`` must not appear anywhere in ``src/``, and the
balanced ``and_many``/``or_many`` must beat the old left-fold on a
conjunction engineered to blow the fold up.
"""

import pathlib
import sys

from repro.bdd.manager import Manager, ONE, ZERO

CHAIN_VARS = 5_000

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def _chain_manager():
    assert CHAIN_VARS > sys.getrecursionlimit()
    manager = Manager()
    manager.ensure_vars(CHAIN_VARS)
    return manager


def _conjunction_chain(manager, lo=0, hi=CHAIN_VARS):
    acc = ONE
    for level in range(hi - 1, lo - 1, -1):
        acc = manager.make_node(level, acc, ZERO)
    return acc


def _parity_chain(manager, lo=0, hi=CHAIN_VARS):
    acc = ZERO
    for level in range(hi - 1, lo - 1, -1):
        acc = manager.make_node(level, acc ^ 1, acc)
    return acc


class TestDeepChainKernels:
    """Every operator crosses 5,000 levels under the default limit."""

    def test_deep_ite(self):
        manager = _chain_manager()
        all_vars = _conjunction_chain(manager)
        parity = _parity_chain(manager)
        result = manager.and_(all_vars, parity)
        # all-ones is the only point of the conjunction; its parity is
        # CHAIN_VARS % 2 = 0, so the intersection is empty.
        assert result == ZERO
        assert manager.or_(all_vars, parity) != ZERO

    def test_deep_exists(self):
        manager = _chain_manager()
        parity = _parity_chain(manager)
        # Quantifying one variable out of a parity function gives TRUE.
        assert manager.exists(parity, [CHAIN_VARS - 1]) == ONE
        assert manager.forall(parity, [CHAIN_VARS - 1]) == ZERO

    def test_deep_and_exists(self):
        manager = _chain_manager()
        all_vars = _conjunction_chain(manager)
        combined = manager.and_exists(
            all_vars, manager.var(0), [CHAIN_VARS - 1]
        )
        assert combined == manager.exists(all_vars, [CHAIN_VARS - 1])

    def test_deep_cofactor(self):
        manager = _chain_manager()
        all_vars = _conjunction_chain(manager)
        deep = manager.cofactor(all_vars, CHAIN_VARS - 1, True)
        assert deep == _conjunction_chain(manager, hi=CHAIN_VARS - 1)

    def test_deep_compose(self):
        manager = _chain_manager()
        all_vars = _conjunction_chain(manager)
        composed = manager.vector_compose(all_vars, {0: ONE})
        assert composed == manager.cofactor(all_vars, 0, True)

    def test_default_recursion_limit_untouched(self):
        limit = sys.getrecursionlimit()
        manager = _chain_manager()
        manager.and_(_conjunction_chain(manager), _parity_chain(manager))
        assert sys.getrecursionlimit() == limit


class TestNoRecursionLimitJuggling:
    """The hack is gone from the source tree, not just unused."""

    def test_no_setrecursionlimit_in_src(self):
        offenders = [
            path
            for path in SRC.rglob("*.py")
            if "setrecursionlimit" in path.read_text()
        ]
        assert offenders == []

    def test_no_retry_deep_in_src(self):
        offenders = [
            path
            for path in SRC.rglob("*.py")
            if "_retry_deep" in path.read_text()
        ]
        assert offenders == []

    def test_no_recursion_error_special_cases_in_src(self):
        # The heuristic layer is iterative too, so nothing catches,
        # raises or maps a RecursionError (or a typed stand-in).
        offenders = [
            path
            for path in SRC.rglob("*.py")
            if "RecursionError" in path.read_text()
            or "RecursionBudgetExceeded" in path.read_text()
        ]
        assert offenders == []


class TestBalancedManyOps:
    """and_many/or_many reduce pairwise, not as a left fold."""

    @staticmethod
    def _fold_blowup_terms(manager, groups=24, width=6):
        """Disjoint OR-groups: a left fold of their AND carries every
        earlier group's disjunction down through each later one, while
        the balanced reduction only ever combines similar-sized
        subproducts."""
        terms = []
        for group in range(groups):
            lo = group * width
            terms.append(
                manager.or_many(
                    manager.var(level) for level in range(lo, lo + width)
                )
            )
        return terms

    def test_and_many_matches_fold_semantics(self):
        manager = Manager()
        manager.ensure_vars(24 * 6)
        terms = self._fold_blowup_terms(manager)
        balanced = manager.and_many(terms)
        folded = ONE
        for term in terms:
            folded = manager.and_(folded, term)
        assert balanced == folded

    def test_and_many_builds_fewer_nodes_than_fold(self):
        groups, width = 24, 6

        fold_manager = Manager()
        fold_manager.ensure_vars(groups * width)
        terms = self._fold_blowup_terms(fold_manager, groups, width)
        before = fold_manager.statistics()["nodes_created"]
        acc = ONE
        for term in terms:
            acc = fold_manager.and_(acc, term)
        fold_nodes = fold_manager.statistics()["nodes_created"] - before

        tree_manager = Manager()
        tree_manager.ensure_vars(groups * width)
        terms = self._fold_blowup_terms(tree_manager, groups, width)
        before = tree_manager.statistics()["nodes_created"]
        tree_manager.and_many(terms)
        tree_nodes = tree_manager.statistics()["nodes_created"] - before

        assert tree_nodes < fold_nodes

    def test_and_many_splits_at_the_middle(self):
        """Each half is conjoined on its own; the halves meet once, last."""
        manager = Manager()
        manager.ensure_vars(6)
        variables = [manager.var(level) for level in range(6)]
        calls = []
        and_ = manager.and_

        def logged(f, g):
            calls.append((f, g))
            return and_(f, g)

        manager.and_ = logged
        manager.and_many(variables)
        del manager.and_
        halves = (
            manager.and_many(variables[:3]),
            manager.and_many(variables[3:]),
        )
        assert len(calls) == 5
        assert calls[-1] == halves

    def test_or_many_short_circuits(self):
        manager = Manager(var_names=["a", "b"])
        assert manager.or_many([manager.var(0), ONE, manager.var(1)]) == ONE
        assert manager.and_many([manager.var(0), ZERO]) == ZERO
        assert manager.and_many([]) == ONE
        assert manager.or_many([]) == ZERO

    def test_many_ops_accept_generators(self):
        manager = Manager()
        manager.ensure_vars(8)
        as_list = manager.and_many([manager.var(i) for i in range(8)])
        as_gen = manager.and_many(manager.var(i) for i in range(8))
        assert as_list == as_gen
