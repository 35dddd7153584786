"""Tests for deterministic fault injection (FaultyManager drills)."""

import pytest

from repro.analysis.errors import NodeBudgetExceeded
from repro.bdd.manager import Manager, ONE, ZERO
from repro.core.ispec import ISpec
from repro.core.sibling import constrain
from repro.robust.faults import (
    FAULT_BUDGET,
    FAULT_CACHE,
    FaultPlan,
    FaultyManager,
)
from repro.robust.guard import guard


def _build_instance(manager):
    a, b, c, d = (manager.var(level) for level in range(4))
    f = manager.or_(manager.and_(a, b), manager.and_(c, d))
    care = manager.or_(a, b)
    return f, care


def _faulty(kind, at, repeat=False, armed=False):
    manager = FaultyManager(
        var_names=["a", "b", "c", "d"],
        plan=FaultPlan(kind, at, repeat=repeat),
        armed=armed,
    )
    return manager


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan("typo", 1)
        with pytest.raises(ValueError):
            FaultPlan(FAULT_BUDGET, 0)
        plan = FaultPlan(FAULT_CACHE, 3, repeat=True)
        assert plan.kind == FAULT_CACHE
        assert plan.repeat


class TestBudgetFault:
    def test_fires_at_scheduled_operation(self):
        manager = _faulty(FAULT_BUDGET, at=1)
        f, c = _build_instance(manager)
        manager.armed = True
        with pytest.raises(NodeBudgetExceeded):
            constrain(manager, f, c)
        assert manager.faults_fired == 1

    def test_deterministic_across_runs(self):
        fired_at = []
        for _ in range(2):
            manager = _faulty(FAULT_BUDGET, at=1)
            f, c = _build_instance(manager)
            setup = manager.operations
            manager.armed = True
            with pytest.raises(NodeBudgetExceeded) as info:
                constrain(manager, f, c)
            fired_at.append((setup, str(info.value)))
        assert fired_at[0] == fired_at[1]

    def test_one_shot_fires_once(self):
        manager = _faulty(FAULT_BUDGET, at=1)
        f, c = _build_instance(manager)
        manager.armed = True
        with pytest.raises(NodeBudgetExceeded):
            constrain(manager, f, c)
        # The fault is spent; the operation now completes.
        cover = constrain(manager, f, c)
        assert ISpec(manager, f, c).is_cover(cover)
        assert manager.faults_fired == 1


class TestCacheFault:
    def test_corruption_flips_cached_results(self):
        manager = _faulty(FAULT_CACHE, at=1)
        a, b = manager.var(0), manager.var(1)
        reference = manager.and_(a, b)
        manager.armed = True
        # The next ITE step fires the corruption, then hits the cache.
        corrupted = manager.and_(a, b)
        assert corrupted == reference ^ 1
        assert manager.faults_fired == 1

    def test_clear_caches_cures_corruption(self):
        manager = _faulty(FAULT_CACHE, at=1)
        a, b = manager.var(0), manager.var(1)
        reference = manager.and_(a, b)
        manager.armed = True
        manager.and_(a, b)  # corrupts
        manager.armed = False
        manager.clear_caches()
        healed = manager.and_(a, b)
        assert healed == reference
        assignment = {0: True, 1: True}
        assert manager.eval(healed, assignment)

    def test_guard_catches_corruption(self):
        # The nightmare scenario: no exception, just wrong answers.
        # Warm the cache, then a one-shot corruption fires on the
        # heuristic's first step, so its cache hits lie to it.  The
        # guard's cover check is a node-free agree walk that never
        # reads the ITE table, so a corrupted result cannot sneak
        # through: whatever the guard returns IS a cover.
        manager = _faulty(FAULT_CACHE, at=1)
        f, c = _build_instance(manager)
        spec = ISpec(manager, f, c)
        spec.is_cover(manager.and_(f, c))  # warm the ITE cache
        assert manager.statistics()["ite_cache"] > 0
        manager.armed = True
        guarded = guard(constrain, name="constrain")
        cover = guarded(manager, f, c)
        manager.armed = False
        manager.clear_caches()
        assert spec.is_cover(cover)

    def test_semantics_by_evaluation(self):
        # Cross-check the cure with pointwise evaluation, which never
        # touches the ITE cache.
        manager = _faulty(FAULT_CACHE, at=1)
        a, b = manager.var(0), manager.var(1)
        manager.and_(a, b)
        manager.armed = True
        corrupted = manager.and_(a, b)
        manager.armed = False
        truth = {
            (x, y): x and y for x in (False, True) for y in (False, True)
        }
        wrong = sum(
            1
            for (x, y), expected in truth.items()
            if manager.eval(corrupted, {0: x, 1: y}) != expected
        )
        assert wrong > 0  # the corruption is semantically visible
        manager.clear_caches()
        healed = manager.and_(a, b)
        for (x, y), expected in truth.items():
            assert manager.eval(healed, {0: x, 1: y}) == expected


class TestArming:
    def test_disarmed_manager_never_fires(self):
        manager = _faulty(FAULT_BUDGET, at=1, armed=False)
        f, c = _build_instance(manager)
        cover = constrain(manager, f, c)
        assert ISpec(manager, f, c).is_cover(cover)
        assert manager.faults_fired == 0
        assert manager.operations > 0
