"""Mark-and-sweep collection, protection, free lists and compaction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.checked import CheckedManager
from repro.analysis.errors import InvariantError
from repro.bdd.manager import Manager, ONE, ZERO
from repro.bdd.wire import deserialize, serialize
from tests.conftest import count_gc_marks


def _manager(num_vars=8):
    manager = Manager()
    manager.ensure_vars(num_vars)
    return manager


def _build_garbage(manager, rounds=6):
    """Create, then abandon, a pile of distinct intermediate nodes."""
    for offset in range(rounds):
        acc = manager.var(offset % manager.num_vars)
        for level in range(manager.num_vars):
            acc = manager.xor(acc, manager.and_(
                manager.var(level), manager.var((level + offset + 1) % manager.num_vars)
            ))
    return acc


class TestProtection:
    def test_protect_is_refcounted(self):
        manager = _manager()
        f = manager.and_(manager.var(0), manager.var(1))
        assert manager.protect(f) == f
        manager.protect(f)
        assert manager.protected_refs() == (f,)
        manager.unprotect(f)
        assert manager.protected_refs() == (f,)
        manager.unprotect(f)
        assert manager.protected_refs() == ()

    def test_unprotect_unknown_ref_raises(self):
        manager = _manager()
        with pytest.raises(ValueError):
            manager.unprotect(manager.var(0))

    def test_protecting_context(self):
        manager = _manager()
        f = manager.and_(manager.var(0), manager.var(1))
        with manager.protecting(f):
            assert f in manager.protected_refs()
            manager.gc()
            assert manager.size(f) == 3
        assert manager.protected_refs() == ()

    def test_function_protect_chains(self):
        from repro.bdd.function import Function

        manager = _manager()
        func = Function(manager, manager.or_(manager.var(0), manager.var(1)))
        assert func.protect() is func
        assert func.ref in manager.protected_refs()
        assert func.unprotect() is func
        assert manager.protected_refs() == ()


class TestSweep:
    def test_reclaims_dead_nodes(self):
        manager = _manager()
        keep = manager.and_(manager.var(0), manager.var(1))
        _build_garbage(manager)
        before = manager.num_nodes
        manager.gc((keep,))
        stats = manager.statistics()
        assert stats["gc_runs"] == 1
        assert stats["nodes_reclaimed"] > 0
        # Non-compacting: the table length is unchanged, the dead
        # slots went onto the free list.
        assert manager.num_nodes == before
        assert stats["free_list"] == stats["nodes_reclaimed"]
        assert stats["live_nodes"] == before - stats["nodes_reclaimed"]

    def test_roots_and_their_cones_survive(self):
        manager = _manager()
        f = _build_garbage(manager)
        g = manager.xor(manager.var(2), manager.var(5))
        manager.gc((f, g))
        assert manager.eval(g, {2: True, 5: False})
        manager.validate((f, g))

    def test_refs_stay_canonical_after_sweep(self):
        manager = _manager()
        f = manager.and_(manager.var(0), manager.var(1))
        _build_garbage(manager)
        manager.gc((f,))
        # Rebuilding the same function must return the same ref — the
        # unique table was rebuilt consistently.
        assert manager.and_(manager.var(0), manager.var(1)) == f

    def test_free_slots_are_reused(self):
        manager = _manager()
        keep = manager.var(0)
        _build_garbage(manager)
        manager.gc((keep,))
        table_len = manager.num_nodes
        free_before = manager.statistics()["free_list"]
        assert free_before > 0
        rebuilt = _build_garbage(manager)
        assert manager.num_nodes == table_len  # grew into free slots
        assert manager.statistics()["free_list"] < free_before
        manager.validate(rebuilt)

    def test_gc_clears_caches(self):
        manager = _manager()
        f = manager.and_(manager.var(0), manager.var(1))
        assert manager.statistics()["ite_cache"] > 0
        manager.gc((f,))
        assert manager.statistics()["ite_cache"] == 0

    def test_validate_passes_after_sweep(self):
        manager = _manager()
        f = _build_garbage(manager)
        manager.protect(f)
        manager.gc()
        manager.validate(manager.protected_refs())

    def test_terminal_and_constants_survive_empty_root_set(self):
        manager = _manager()
        _build_garbage(manager)
        manager.gc()
        assert manager.statistics()["live_nodes"] == 1  # just the terminal
        # The manager is still fully usable afterwards.
        assert manager.and_(manager.var(0), manager.var(1)) not in (ONE, ZERO)


class TestCompaction:
    def test_remap_translates_live_refs(self):
        manager = _manager()
        _build_garbage(manager)
        f = manager.and_(manager.var(0), manager.var(1))
        size = manager.size(f)
        remap = manager.gc((f,), compact=True)
        assert remap is not None
        new_f = remap(f)
        assert manager.size(new_f) == size
        assert manager.eval(new_f, {0: True, 1: True})
        manager.validate(new_f)

    def test_remap_preserves_complement_bit(self):
        manager = _manager()
        _build_garbage(manager)
        f = manager.and_(manager.var(0), manager.var(1))
        remap = manager.gc((f,), compact=True)
        assert remap(f) & 1 == f & 1
        assert remap(f ^ 1) == remap(f) ^ 1

    def test_remap_rejects_dead_refs(self):
        manager = _manager()
        dead = _build_garbage(manager)
        f = manager.var(0)
        remap = manager.gc((f,), compact=True)
        if dead not in remap:
            with pytest.raises(InvariantError):
                remap(dead)

    def test_compaction_shrinks_the_table(self):
        manager = _manager()
        f = manager.and_(manager.var(0), manager.var(1))
        _build_garbage(manager)
        before = manager.num_nodes
        remap = manager.gc((f,), compact=True)
        assert manager.num_nodes < before
        assert manager.statistics()["free_list"] == 0
        assert manager.num_nodes == manager.statistics()["live_nodes"]
        manager.validate(remap(f))

    def test_protected_refs_are_remapped_automatically(self):
        manager = _manager()
        _build_garbage(manager)
        f = manager.and_(manager.var(0), manager.var(1))
        manager.protect(f)
        remap = manager.gc(compact=True)
        (new_f,) = manager.protected_refs()
        assert new_f == remap(f)
        manager.unprotect(new_f)

    def test_wire_bytes_unchanged_by_compaction(self):
        # The wire format emits canonically, so compaction — which
        # renames node indices but not the function — must not change
        # a single byte.
        manager = _manager()
        _build_garbage(manager)
        f = manager.xor(manager.and_(manager.var(0), manager.var(1)),
                        manager.var(3))
        before = serialize(manager, (f,))
        remap = manager.gc((f,), compact=True)
        after = serialize(manager, (remap(f),))
        assert before == after

    def test_wire_round_trip_after_compaction(self):
        manager = _manager()
        _build_garbage(manager)
        f = manager.or_(manager.var(2), manager.and_(manager.var(4),
                                                     manager.var(5)))
        remap = manager.gc((f,), compact=True)
        fresh, roots = deserialize(serialize(manager, (remap(f),)))
        assert fresh.size(roots[0]) == manager.size(remap(f))

    def test_function_remapped_helper(self):
        from repro.bdd.function import Function

        manager = _manager()
        _build_garbage(manager)
        func = Function(manager, manager.and_(manager.var(0),
                                              manager.var(1)))
        remap = manager.gc((func.ref,), compact=True)
        moved = func.remapped(remap)
        assert moved.ref == remap(func.ref)
        assert moved.manager.eval(moved.ref, {0: True, 1: True})


class TestCountersAndChecked:
    def test_statistics_counters_accumulate(self):
        manager = _manager()
        f = manager.var(0)
        _build_garbage(manager)
        manager.gc((f,))
        first = manager.statistics()["nodes_reclaimed"]
        _build_garbage(manager)
        manager.gc((f,), compact=True)
        stats = manager.statistics()
        assert stats["gc_runs"] == 2
        assert stats["nodes_reclaimed"] > first

    def test_checked_manager_validates_after_gc(self):
        manager = CheckedManager(check=True)
        manager.ensure_vars(8)
        f = manager.and_(manager.var(0), manager.var(1))
        _build_garbage(manager)
        checks = manager.checks_run
        remap = manager.gc((f,), compact=True)
        assert manager.checks_run > checks
        assert manager.size(remap(f)) == 3

    def test_peak_nodes_is_a_table_watermark(self):
        manager = _manager()
        keep = manager.var(0)
        _build_garbage(manager)
        peak = manager.statistics()["peak_nodes"]
        manager.gc((keep,))
        _build_garbage(manager)
        # Regrowth into free slots does not raise the watermark.
        assert manager.statistics()["peak_nodes"] == peak


class TestScheduleGc:
    def test_gc_interval_does_not_change_results(self):
        from repro.core.schedule import Schedule, scheduled_minimize

        def build(manager):
            a, b, c, d = (manager.var(level) for level in range(4))
            f = manager.or_(manager.and_(a, b), manager.and_(c, d))
            care = manager.or_many((a, b, manager.xor(c, d)))
            return f, care

        plain = Manager(var_names=list("abcd"))
        f, c = build(plain)
        expected = scheduled_minimize(plain, f, c, Schedule(window_size=1))

        collected = Manager(var_names=list("abcd"))
        f, c = build(collected)
        result = scheduled_minimize(
            collected, f, c, Schedule(window_size=1, gc_interval=1)
        )
        assert collected.statistics()["gc_runs"] > 0
        # Same function, even though the managers differ internally.
        assert collected.size(result) == plain.size(expected)
        for point in range(16):
            assignment = {
                level: bool(point >> level & 1) for level in range(4)
            }
            assert collected.eval(result, assignment) == plain.eval(
                expected, assignment
            )

    def test_gc_interval_validation(self):
        from repro.core.schedule import Schedule

        with pytest.raises(ValueError):
            Schedule(gc_interval=0)


#: Operations of the twin-manager drill (see TestRepeatRootSweep).
TWIN_OPS = ("build", "keep", "drop", "protect", "unprotect", "new_var", "gc")


class _Twin:
    """One side of the drill: a manager, its live roots and its pins.

    ``full_mark`` twins present their roots in alternating order (after
    a constant pair, so the tuple differs from the previous one), which
    forces every collection through the full mark.
    """

    def __init__(self, full_mark):
        self.manager = _manager(4)
        self.full_mark = full_mark
        self.roots = []
        self.pinned = []
        self.collections = 0

    def gc_roots(self):
        if not self.full_mark:
            return tuple(self.roots)
        roots = (ONE, ZERO) + tuple(self.roots)
        self.collections += 1
        return roots if self.collections % 2 else roots[::-1]

    def apply(self, op, a, b):
        manager = self.manager
        operands = [manager.var(level) for level in range(manager.num_vars)]
        operands += self.roots
        x = operands[a % len(operands)]
        y = operands[b % len(operands)]
        if op == "build":
            manager.xor(manager.and_(x, y ^ (a & 1)), manager.or_(y, x))
        elif op == "keep":
            made = manager.ite(x, y, manager.var(b % manager.num_vars) ^ 1)
            if made not in (ONE, ZERO):
                self.roots.append(made)
        elif op == "drop" and self.roots:
            self.roots.pop(a % len(self.roots))
        elif op == "protect" and self.roots:
            self.pinned.append(manager.protect(self.roots[a % len(self.roots)]))
        elif op == "unprotect" and self.pinned:
            manager.unprotect(self.pinned.pop(a % len(self.pinned)))
        elif op == "new_var":
            manager.new_var()
        elif op == "gc":
            manager.gc(self.gc_roots())

    def compact(self):
        remap = self.manager.gc(self.gc_roots(), compact=True)
        self.roots = [remap(ref) for ref in self.roots]
        self.pinned = [remap(ref) for ref in self.pinned]

    def state(self):
        manager = self.manager
        return (
            list(manager._unique.items()),
            list(manager._free),
            manager.statistics(),
        )


class TestRepeatRootSweep:
    """A collection repeating the last roots pops the table's tail; it
    must leave exactly what the full mark leaves."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(TWIN_OPS),
                st.integers(0, 63),
                st.integers(0, 63),
            ),
            max_size=40,
        ),
        st.integers(0, 40),
    )
    def test_twin_managers_stay_identical(self, ops, compact_at):
        fast = _Twin(full_mark=False)
        full = _Twin(full_mark=True)
        marks = count_gc_marks(full.manager)
        for position, (op, a, b) in enumerate(ops):
            if position == compact_at:
                fast.compact()
                full.compact()
            fast.apply(op, a, b)
            full.apply(op, a, b)
            if op == "gc":
                # Repeating the gc exercises the repeat-root path on
                # the fast twin whatever came before.
                fast.apply("build", a, b)
                full.apply("build", a, b)
                fast.apply("gc", a, b)
                full.apply("gc", a, b)
            assert fast.state() == full.state()
        # The full twin never took the repeat-root path.
        assert len(marks) == full.collections

    def test_repeat_roots_skip_the_mark(self):
        manager = _manager()
        keep = manager.and_(manager.var(0), manager.var(1))
        _build_garbage(manager)
        manager.gc((keep,))
        marks = count_gc_marks(manager)
        _build_garbage(manager)
        manager.gc((keep,))
        assert marks == []
        # Only keep's two nodes and the terminal are left.
        assert manager.statistics()["live_nodes"] == 3
        # New roots, a new pin or a compaction all need the mark.
        manager.gc((keep, manager.var(2)))
        assert marks == [1]
        manager.protect(keep)
        manager.gc((keep, manager.var(2)))
        assert marks == [1, 1]
        keep = manager.gc((keep, manager.var(2)), compact=True)(keep)
        assert marks == [1, 1, 1]
        manager.gc((keep, manager.var(2)))
        assert marks == [1, 1, 1, 1]
