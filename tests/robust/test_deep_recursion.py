"""Satellite: BDDs deeper than the interpreter recursion limit.

The operator kernels and the heuristic layer are iterative (explicit
frame stacks), so depth is heap-bounded: a chain BDD over more
variables than ``sys.getrecursionlimit()`` must go through ``ite``,
``cofactor``, quantification, ``sat_count``, ``cubes`` and every
registered heuristic *without* the library ever touching the
interpreter limit.  These tests pin that down — and pin down that the
old limit-raising retry is really gone: the limit after a deep
operation is exactly the limit before it.  (The heuristic tests lower
the limit themselves, so a few hundred levels are already too deep.)
"""

import contextlib
import sys

import pytest

from repro.bdd.cover import is_def2_cover
from repro.bdd.manager import Manager, ONE, ZERO
from repro.core.registry import HEURISTICS
from repro.experiments import harness
from repro.experiments.calls import MinimizationCall
from repro.robust.guard import guard


def _deep_manager(extra: int = 500):
    """A manager with more variables than the recursion limit."""
    depth = sys.getrecursionlimit() + extra
    manager = Manager()
    manager.ensure_vars(depth)
    return manager, depth


def _levels(depth: int, parity):
    """Levels ``depth-1 .. 0``, only those of one parity if given."""
    return [
        level for level in range(depth - 1, -1, -1)
        if parity is None or level % 2 == parity
    ]


def _conjunction_chain(manager: Manager, depth: int, parity=None) -> int:
    """AND of all variables (or of one parity), built iteratively."""
    acc = ONE
    for level in _levels(depth, parity):
        acc = manager.make_node(level, acc, ZERO)
    return acc


def _disjunction_chain(manager: Manager, depth: int, parity=None) -> int:
    """OR of all variables (or of one parity), built iteratively."""
    acc = ZERO
    for level in _levels(depth, parity):
        acc = manager.make_node(level, ONE, acc)
    return acc


def _parity_chain(manager: Manager, depth: int) -> int:
    """XOR of all variables, built iteratively.

    Parity has no constant cofactor at any level, so an ITE against it
    cannot take a terminal shortcut: the kernel genuinely expands one
    frame per variable, which is what these tests need to provoke.
    """
    acc = ZERO
    for level in range(depth - 1, -1, -1):
        acc = manager.make_node(level, acc ^ 1, acc)
    return acc


class TestDeepBdds:
    def test_deep_ite_completes(self):
        limit_before = sys.getrecursionlimit()
        manager, depth = _deep_manager()
        all_vars = _conjunction_chain(manager, depth)
        parity = _parity_chain(manager, depth)
        try:
            result = manager.and_(all_vars, parity)
        except RecursionError:  # pragma: no cover - the regression
            pytest.fail("raw RecursionError escaped from Manager.and_")
        # The only satisfying point of AND-of-all is all-ones, where
        # the parity of ``depth`` variables is ``depth % 2``.
        assert result == (all_vars if depth % 2 else ZERO)
        # The iterative kernel never touches the interpreter limit.
        assert sys.getrecursionlimit() == limit_before

    def test_deep_cofactor_completes(self):
        manager, depth = _deep_manager()
        all_vars = _conjunction_chain(manager, depth)
        positive = manager.cofactor(all_vars, 0, True)
        negative = manager.cofactor(all_vars, 0, False)
        assert negative == ZERO
        assert manager.level(positive) == 1

    def test_deep_quantification_completes(self):
        manager, depth = _deep_manager()
        all_vars = _conjunction_chain(manager, depth)
        quantified = manager.exists(all_vars, [0])
        assert manager.level(quantified) == 1

    def test_deep_sat_count_completes(self):
        manager, depth = _deep_manager()
        any_var = _disjunction_chain(manager, depth)
        count = manager.sat_count(any_var, depth)
        assert count == (1 << depth) - 1

    def test_deep_cubes_completes(self):
        manager, depth = _deep_manager()
        all_vars = _conjunction_chain(manager, depth)
        cubes = list(manager.cubes(all_vars))
        assert len(cubes) == 1
        assert all(cubes[0][level] for level in range(depth))

    def test_deep_gc_completes(self):
        manager, depth = _deep_manager()
        all_vars = _conjunction_chain(manager, depth)
        scratch = _parity_chain(manager, depth)
        del scratch
        manager.gc((all_vars,))
        assert manager.statistics()["nodes_reclaimed"] >= depth - 1
        assert manager.cofactor(all_vars, 0, False) == ZERO

    def test_recursion_limit_never_raised(self):
        """Whole-module guard: the limit is a constant of the process."""
        limit_before = sys.getrecursionlimit()
        manager, depth = _deep_manager()
        all_vars = _conjunction_chain(manager, depth)
        parity = _parity_chain(manager, depth)
        manager.xor(all_vars, parity)
        manager.exists(parity, [0, 1, 2])
        manager.sat_count(all_vars, depth)
        assert sys.getrecursionlimit() == limit_before

    def test_shallow_operations_unaffected(self):
        manager = Manager(var_names=["a", "b"])
        conj = manager.and_(manager.var(0), manager.var(1))
        assert manager.size(conj) == 3


@contextlib.contextmanager
def _lowered_recursion_limit(headroom: int = 100):
    """Lower the limit to ``headroom`` frames above the current depth.

    Keeps the deep-heuristic tests fast: an instance only a few hundred
    levels deep is then deeper than the limit, where at the default
    limit ``opt_lv`` (superlinear in depth) would need seconds.
    """
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(before)


class TestDeepHeuristics:
    """Every registered heuristic on f = AND of the even levels and
    c = OR of the odd ones: one long single-successor chain per
    function, and a pair walk as deep as the variable count."""

    def _instance(self):
        manager, depth = _deep_manager(extra=150)
        f = _conjunction_chain(manager, depth, parity=0)
        c = _disjunction_chain(manager, depth, parity=1)
        return manager, depth, f, c

    def test_every_heuristic_covers_without_failure(self):
        with _lowered_recursion_limit():
            manager, depth, f, c = self._instance()
            assert depth > sys.getrecursionlimit()
            for name, heuristic in HEURISTICS.items():
                guarded = guard(heuristic, name=name)
                cover = guarded(manager, f, c)
                assert guarded.last_failure is None, name
                assert is_def2_cover(manager, f, c, cover), name

    def test_harness_records_no_failure(self):
        with _lowered_recursion_limit():
            manager, depth, f, c = self._instance()
            call = MinimizationCall(
                "deep_chain", 0, f, c, manager.size(f), 0.5
            )
            result = harness._measure_call(
                manager,
                call,
                tuple(HEURISTICS),
                budget=None,
                compute_lower_bound=True,
                cube_limit=4,
                gc_roots=None,
            )
        assert result.failures == {}
        assert None not in result.sizes.values()
        assert result.lower_bound is not None
