"""Tests for guarded heuristic execution and graceful degradation."""

import time

import pytest

from repro.analysis.errors import (
    DETERMINISTIC,
    TRANSIENT,
    ContractError,
    InvariantError,
    NodeBudgetExceeded,
)
from repro.bdd.manager import Manager, ONE, ZERO
from repro.core.ispec import ISpec
from repro.core.registry import HEURISTICS
from repro.core.sibling import constrain
from repro.robust.governor import Budget
from repro.robust.guard import (
    DEFAULT_LADDER,
    GuardedHeuristic,
    guard,
    guarding_enabled,
    run_cell,
)


def _instance():
    """A small non-trivial [f, c] instance."""
    manager = Manager(var_names=["a", "b", "c", "d"])
    a, b, c, d = (manager.var(level) for level in range(4))
    f = manager.or_(manager.and_(a, b), manager.and_(c, d))
    care = manager.or_(a, b)
    return manager, f, care


def _ladder_instance():
    """An [f, c] instance on which osm_bt needs ~70 steps (ITE plus
    agree), well past 16x a one-step budget."""
    manager = Manager(var_names=list("abcdefgh"))
    v = [manager.var(level) for level in range(8)]
    f = manager.or_many(manager.and_(v[i], v[i + 1]) for i in range(0, 8, 2))
    care = manager.or_many(manager.xor(v[i], v[i + 4]) for i in range(4))
    return manager, f, care


class TestDegradation:
    def test_budget_trip_degrades_to_identity(self):
        manager, f, c = _instance()
        guarded = guard(
            HEURISTICS["osm_bt"], name="osm_bt", budget=Budget(max_steps=1)
        )
        cover = guarded(manager, f, c)
        assert cover == f
        assert guarded.failures == 1
        assert "StepBudgetExceeded" in guarded.last_failure

    def test_identity_fallback_is_a_cover(self):
        manager, f, c = _instance()
        guarded = guard(
            HEURISTICS["constrain"], budget=Budget(max_steps=1)
        )
        cover = guarded(manager, f, c)
        assert ISpec(manager, f, c).is_cover(cover)

    def test_success_passes_through(self):
        manager, f, c = _instance()
        guarded = guard(HEURISTICS["osm_bt"], name="osm_bt")
        cover = guarded(manager, f, c)
        assert ISpec(manager, f, c).is_cover(cover)
        assert guarded.failures == 0
        assert guarded.last_failure is None
        assert guarded.calls == 1

    def test_non_cover_result_degrades(self):
        manager, f, c = _instance()
        guarded = guard(lambda mgr, ff, cc: ZERO, name="broken")
        cover = guarded(manager, f, c)
        assert cover == f
        assert "non-cover" in guarded.last_failure

    def test_programming_errors_propagate(self):
        manager, f, c = _instance()

        def crashes(mgr, ff, cc):
            raise ValueError("a genuine bug")

        guarded = guard(crashes)
        with pytest.raises(ValueError):
            guarded(manager, f, c)

    def test_on_failure_callback(self):
        manager, f, c = _instance()
        seen = []
        guarded = guard(
            HEURISTICS["osm_bt"],
            name="osm_bt",
            budget=Budget(max_steps=1),
            on_failure=lambda name, reason: seen.append((name, reason)),
        )
        guarded(manager, f, c)
        assert len(seen) == 1
        assert seen[0][0] == "osm_bt"
        assert "StepBudgetExceeded" in seen[0][1]


class TestRunCell:
    def test_success_returns_the_checked_cover(self):
        manager, f, c = _instance()
        cell = run_cell(manager, f, c, HEURISTICS["osm_bt"], "osm_bt", None)
        assert cell.cover is not None
        assert ISpec(manager, f, c).is_cover(cell.cover)
        assert (cell.reason, cell.kind, cell.error) == (None, None, None)
        assert cell.seconds >= 0.0
        assert "ite_calls" in cell.stats

    def test_node_budget_trip_is_transient_with_stats(self):
        manager, f, c = _ladder_instance()
        before = manager.statistics()["nodes_created"]
        cell = run_cell(
            manager, f, c, HEURISTICS["constrain"], "constrain",
            Budget(max_nodes=1),
        )
        assert cell.cover is None
        assert cell.kind == TRANSIENT
        assert isinstance(cell.error, NodeBudgetExceeded)
        assert cell.reason.startswith("NodeBudgetExceeded")
        # The work burned before the trip is on record.
        created = manager.statistics()["nodes_created"] - before
        assert cell.stats["nodes_created"] == created >= 1

    def test_non_cover_is_deterministic(self):
        manager, f, c = _instance()
        cell = run_cell(
            manager, f, c, lambda mgr, ff, cc: ZERO, "broken", None
        )
        assert cell.cover is None
        assert cell.kind == DETERMINISTIC
        assert isinstance(cell.error, ContractError)
        assert cell.reason == "ContractError: broken returned a non-cover"

    def test_invariant_error_is_deterministic(self):
        manager, f, c = _instance()

        def corrupt(mgr, ff, cc):
            raise InvariantError("corrupt table")

        cell = run_cell(manager, f, c, corrupt, "corrupt", None)
        assert cell.cover is None
        assert cell.kind == DETERMINISTIC
        assert cell.reason == "InvariantError: corrupt table"

    def test_programming_errors_propagate(self):
        manager, f, c = _instance()

        def crashes(mgr, ff, cc):
            raise ValueError("a genuine bug")

        with pytest.raises(ValueError):
            run_cell(manager, f, c, crashes, "crashes", None)

    def test_seconds_and_stats_exclude_the_cover_check(self, monkeypatch):
        # A planted cover check that sleeps and walks agree: neither its
        # time nor its agree steps may be charged to the heuristic.
        manager, f, c = _ladder_instance()
        original = ISpec.is_cover

        def slow_check(spec, g):
            time.sleep(0.2)
            spec.manager.agree(spec.f, ONE, spec.c)
            return original(spec, g)

        monkeypatch.setattr(ISpec, "is_cover", slow_check)
        before = manager.statistics()["agree_steps"]
        cell = run_cell(
            manager, f, c, lambda mgr, ff, cc: ff, "identity", None
        )
        assert cell.cover == f
        assert manager.statistics()["agree_steps"] > before
        assert cell.stats["agree_steps"] == 0
        assert cell.seconds < 0.1


class TestLadder:
    def test_escalation_succeeds_at_higher_rung(self):
        manager, f, c = _instance()
        attempts = []

        def needs_room(mgr, ff, cc):
            budget = mgr.step_hook.budget
            attempts.append(budget.max_nodes)
            if budget.max_nodes < 10:
                raise NodeBudgetExceeded("needs at least 10")
            return constrain(mgr, ff, cc)

        guarded = guard(
            needs_room, budget=Budget(max_nodes=1), escalate=True
        )
        cover = guarded(manager, f, c)
        # Rungs 1 and 4 fail, rung 16 succeeds: no degradation recorded.
        assert attempts == [1, 4, 16]
        assert guarded.failures == 0
        assert ISpec(manager, f, c).is_cover(cover)

    def test_exhausted_ladder_degrades(self):
        manager, f, c = _ladder_instance()
        guarded = guard(
            HEURISTICS["osm_bt"],
            budget=Budget(max_steps=1),
            escalate=True,
        )
        # Even 16x a one-step budget is nowhere near enough here.
        assert guarded(manager, f, c) == f
        assert guarded.failures == 1

    def test_deterministic_failures_skip_the_ladder(self):
        manager, f, c = _instance()
        attempts = []

        def always_wrong(mgr, ff, cc):
            attempts.append(1)
            raise InvariantError("deterministic bug")

        guarded = guard(
            always_wrong, budget=Budget(max_nodes=1), escalate=True
        )
        assert guarded(manager, f, c) == f
        assert len(attempts) == 1  # no retries: a bug stays a bug
        assert "InvariantError" in guarded.last_failure

    def test_ladder_requires_entries(self):
        with pytest.raises(ValueError):
            GuardedHeuristic(constrain, ladder=())


class TestGuardFactory:
    def test_idempotent_without_overrides(self):
        guarded = guard(HEURISTICS["osm_bt"])
        assert guard(guarded) is guarded

    def test_rewrap_with_budget(self):
        guarded = guard(HEURISTICS["osm_bt"])
        rewrapped = guard(guarded, budget=Budget(max_nodes=5))
        assert rewrapped is not guarded
        assert rewrapped.budget.max_nodes == 5

    def test_escalate_uses_default_ladder(self):
        guarded = guard(
            HEURISTICS["osm_bt"], budget=Budget(max_nodes=1), escalate=True
        )
        assert guarded.ladder == DEFAULT_LADDER

    def test_name_and_repr(self):
        guarded = guard(HEURISTICS["osm_bt"], name="osm_bt")
        assert guarded.__name__ == "guarded:osm_bt"
        assert "osm_bt" in repr(guarded)

    def test_env_switch(self, monkeypatch):
        monkeypatch.delenv("REPRO_GUARD", raising=False)
        assert not guarding_enabled()
        monkeypatch.setenv("REPRO_GUARD", "1")
        assert guarding_enabled()

    def test_registry_dispatch_guards_under_env(self, monkeypatch):
        from repro.core.registry import get_heuristic

        monkeypatch.setenv("REPRO_GUARD", "1")
        heuristic = get_heuristic("osm_bt")
        assert isinstance(heuristic, GuardedHeuristic)
        monkeypatch.delenv("REPRO_GUARD")
        assert not isinstance(get_heuristic("osm_bt"), GuardedHeuristic)

    def test_registry_budget_implies_guarding(self):
        from repro.core.registry import get_heuristic

        heuristic = get_heuristic("osm_bt", budget=Budget(max_steps=1))
        assert isinstance(heuristic, GuardedHeuristic)
        manager, f, c = _instance()
        assert heuristic(manager, f, c) == f
        assert heuristic.failures == 1


class TestAttemptAccounting:
    def test_attempts_count_ladder_rungs(self):
        manager, f, c = _ladder_instance()
        guarded = guard(
            HEURISTICS["osm_bt"],
            budget=Budget(max_steps=1),
            escalate=True,
        )
        guarded(manager, f, c)
        assert guarded.last_attempts == len(DEFAULT_LADDER)
        assert guarded.attempts == len(DEFAULT_LADDER)
        guarded(manager, f, c)
        assert guarded.attempts == 2 * len(DEFAULT_LADDER)

    def test_success_uses_one_attempt(self):
        manager, f, c = _instance()
        guarded = guard(HEURISTICS["osm_bt"])
        guarded(manager, f, c)
        assert guarded.attempts == 1
        assert guarded.last_attempts == 1

    def test_reason_names_the_failing_rung_and_budget(self):
        manager, f, c = _ladder_instance()
        guarded = guard(
            HEURISTICS["osm_bt"],
            budget=Budget(max_steps=1),
            ladder=(1.0, 4.0),
        )
        guarded(manager, f, c)
        assert "StepBudgetExceeded" in guarded.last_failure
        assert "[rung 2/2" in guarded.last_failure
        assert "steps<=4" in guarded.last_failure

    def test_unbudgeted_reason_stays_bare(self):
        manager, f, c = _instance()
        guarded = guard(lambda mgr, ff, cc: ZERO, name="broken")
        guarded(manager, f, c)
        assert "rung" not in guarded.last_failure


class TestGuardConflicts:
    def test_conflicting_escalate_raises(self):
        guarded = guard(HEURISTICS["osm_bt"])
        with pytest.raises(ValueError, match="escalate"):
            guard(guarded, escalate=True)

    def test_conflicting_ladder_raises(self):
        guarded = guard(HEURISTICS["osm_bt"])
        with pytest.raises(ValueError, match="ladder"):
            guard(guarded, ladder=(1.0, 2.0))

    def test_conflicting_name_raises(self):
        guarded = guard(HEURISTICS["osm_bt"], name="osm_bt")
        with pytest.raises(ValueError, match="name"):
            guard(guarded, name="other")

    def test_conflicting_on_failure_raises(self):
        guarded = guard(HEURISTICS["osm_bt"])
        with pytest.raises(ValueError, match="on_failure"):
            guard(guarded, on_failure=lambda name, reason: None)

    def test_matching_overrides_stay_idempotent(self):
        guarded = guard(HEURISTICS["osm_bt"], name="osm_bt")
        assert guard(guarded, name="osm_bt") is guarded

    def test_budget_override_always_rewraps(self):
        guarded = guard(HEURISTICS["osm_bt"])
        # A conflicting override raises without a budget (above); with
        # one it builds a fresh wrapper instead.
        rewrapped = guard(guarded, budget=Budget(max_nodes=5), name="other")
        assert rewrapped is not guarded
        assert rewrapped.name == "other"
