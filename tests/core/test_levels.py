"""Tests for level minimization: gathering, rebuild, opt_lv."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd.manager import Manager, ONE, ZERO
from repro.bdd.parser import parse_expression
from repro.core.criteria import Criterion
from repro.core.ispec import ISpec, parse_instance
from repro.core.levels import (
    _Frontier,
    gather_at_level,
    minimize_at_level,
    opt_lv,
    rebuild_with_replacements,
)

from tests.conftest import instance_strategy, build_instance
from tests.core import textbook


class TestGather:
    def test_root_pair_at_boundary_zero(self):
        manager = Manager()
        spec = parse_instance(manager, "d1 01 1d 01")
        pairs, paths = gather_at_level(manager, spec.f, spec.c, 0)
        assert pairs == [(spec.f, spec.c)]
        assert paths[(spec.f, spec.c)] == ()

    def test_boundary_one_gathers_cofactor_pairs(self):
        manager = Manager()
        spec = parse_instance(manager, "d1 01 1d 01")
        pairs, paths = gather_at_level(manager, spec.f, spec.c, 1)
        for f_sub, c_sub in pairs:
            assert manager.level(f_sub) >= 1
            assert manager.level(c_sub) >= 1
        # Paths are single entries: 0 (else) or 1 (then).
        for path in paths.values():
            assert len(path) == 1

    def test_gathered_pairs_unique(self):
        manager = Manager()
        spec = parse_instance(manager, "01 01 01 01")
        pairs, _ = gather_at_level(manager, spec.f, spec.c, 2)
        assert len(pairs) == len(set(pairs))

    def test_only_boundary_rooted_filter(self):
        manager = Manager(["a", "b", "c"])
        f = parse_expression(manager, "(a & b) | c")
        c = ONE
        pairs, _ = gather_at_level(manager, f, c, 1, only_boundary_rooted=True)
        for f_sub, _ in pairs:
            assert manager.level(f_sub) == 1

    def test_constants_gathered_at_deep_boundary(self):
        manager = Manager(["a"])
        f = manager.var(0)
        pairs, _ = gather_at_level(manager, f, ONE, 1)
        assert (ONE, ONE) in pairs
        assert (ZERO, ONE) in pairs


class TestRebuild:
    def test_identity_rebuild(self):
        manager = Manager()
        spec = parse_instance(manager, "d1 01 1d 01")
        rebuilt = rebuild_with_replacements(manager, spec.f, spec.c, 1, {})
        assert rebuilt == (spec.f, spec.c)

    def test_replacement_applied(self):
        manager = Manager(["a", "b"])
        a, b = manager.var(0), manager.var(1)
        f = manager.ite(a, b, b ^ 1)
        # Replace the then-branch pair (b, ONE) with (ONE, ONE).
        rebuilt_f, rebuilt_c = rebuild_with_replacements(
            manager, f, ONE, 1, {(b, ONE): (ONE, ONE)}
        )
        assert rebuilt_f == manager.ite(a, ONE, b ^ 1)
        assert rebuilt_c == ONE


class TestMinimizeAtLevel:
    @given(instance_strategy(4, nonzero_care=True))
    @settings(max_examples=30)
    def test_result_i_covers_input(self, instance):
        manager = Manager()
        f, c = build_instance(manager, *instance)
        original = ISpec(manager, f, c)
        for boundary in range(1, 5):
            for criterion in Criterion:
                new_f, new_c = minimize_at_level(
                    manager, f, c, boundary, criterion=criterion
                )
                assert ISpec(manager, new_f, new_c).i_covers(original)

    @given(instance_strategy(3, nonzero_care=True))
    @settings(max_examples=30)
    def test_batching_preserves_validity(self, instance):
        manager = Manager()
        f, c = build_instance(manager, *instance)
        original = ISpec(manager, f, c)
        new_f, new_c = minimize_at_level(
            manager, f, c, 2, criterion=Criterion.TSM, batch_size=2
        )
        assert ISpec(manager, new_f, new_c).i_covers(original)

    def test_merging_happens(self):
        """Two level-1 subfunctions that agree on care points merge."""
        manager = Manager()
        # f = (01 0d): cofactors x2 and "0 or d"; with tsm at level 1
        # the pair [(0d)] can match [01] -> both become x2-like.
        spec = parse_instance(manager, "01 0d")
        new_f, new_c = minimize_at_level(
            manager, spec.f, spec.c, 1, criterion=Criterion.TSM
        )
        assert ISpec(manager, new_f, new_c).i_covers(spec)
        assert manager.size(new_f) <= manager.size(spec.f)


class TestOptLv:
    @given(instance_strategy(4, nonzero_care=True))
    @settings(max_examples=25)
    def test_returns_cover(self, instance):
        manager = Manager()
        f, c = build_instance(manager, *instance)
        cover = opt_lv(manager, f, c)
        assert ISpec(manager, f, c).is_cover(cover)

    def test_empty_care(self):
        manager = Manager(["a"])
        assert opt_lv(manager, manager.var(0), ZERO) == ONE

    def test_constant_input(self):
        manager = Manager(["a"])
        assert opt_lv(manager, ONE, manager.var(0)) == ONE

    def test_reduces_redundant_structure(self):
        """opt_lv collapses shareable subfunctions across the level."""
        manager = Manager()
        # f distinguishes branches only on don't-care points.
        spec = parse_instance(manager, "01 0d 01 d1")
        cover = opt_lv(manager, spec.f, spec.c)
        assert ISpec(manager, spec.f, spec.c).is_cover(cover)
        assert manager.size(cover) <= manager.size(spec.f)

    @given(instance_strategy(4, nonzero_care=True))
    @settings(max_examples=15)
    def test_osm_variant_also_covers(self, instance):
        manager = Manager()
        f, c = build_instance(manager, *instance)
        cover = opt_lv(manager, f, c, criterion=Criterion.OSM)
        assert ISpec(manager, f, c).is_cover(cover)

    @given(instance_strategy(3, nonzero_care=True))
    @settings(max_examples=15)
    def test_ablation_flags_preserve_validity(self, instance):
        manager = Manager()
        f, c = build_instance(manager, *instance)
        for degree in (False, True):
            for weights in (False, True):
                cover = opt_lv(
                    manager,
                    f,
                    c,
                    order_by_degree=degree,
                    use_distance_weights=weights,
                )
                assert ISpec(manager, f, c).is_cover(cover)


def _rooted_at(manager, pairs, level):
    return any(
        min(manager.level(f_sub), manager.level(c_sub)) == level
        for f_sub, c_sub in pairs
    )


def _reference_steps(manager, f, c, criterion, batch_size):
    """The per-boundary loop, boundary by boundary: yields ``(boundary,
    skipped, before, after)``, where ``skipped`` says whether the
    one-pass opt_lv leaves the boundary unsolved."""
    support = manager.support_multi((f, c))
    settled = True
    for boundary in range(1, max(support) + 2):
        pairs, _ = gather_at_level(manager, f, c, boundary - 1)
        skipped = settled and not _rooted_at(manager, pairs, boundary - 1)
        after = minimize_at_level(
            manager, f, c, boundary, criterion=criterion, batch_size=batch_size
        )
        if not skipped:
            solved, _ = gather_at_level(manager, f, c, boundary)
            settled = (
                after == (f, c)
                or batch_size is None
                or len(solved) <= batch_size
            )
        yield boundary, skipped, (f, c), after
        f, c = after


BATCHINGS = pytest.mark.parametrize("batch_size", [None, 2, 3])
CRITERIA = pytest.mark.parametrize(
    "criterion", [Criterion.TSM, Criterion.OSM], ids=["tsm", "osm"]
)


class TestOnePassOptLv:
    """The one-pass opt_lv against the per-boundary reference loop."""

    @given(instance=instance_strategy(5, nonzero_care=True), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_frontier_is_the_gather_of_the_rebuilt_pair(self, instance, data):
        """Under random replacement maps (kept, sent to another gathered
        pair, or merged with one), the carried frontier lists the pairs
        a fresh gather finds on the rebuilt pair, in its order and with
        its first paths, and materializes the rebuilt ``f``."""
        manager = Manager()
        f, c = build_instance(manager, *instance)
        frontier = _Frontier(manager, f, c)
        for boundary in range(1, max(manager.support_multi((f, c))) + 2):
            rooted = [frontier.level[i] for i in frontier.entries]
            if boundary - 1 in rooted:
                frontier.expand(boundary - 1)
            pairs, paths = gather_at_level(manager, f, c, boundary)
            assert [frontier.pair[i] for i in frontier.entries] == pairs
            assert [
                frontier.path(i, boundary) for i in frontier.entries
            ] == [paths[pair] for pair in pairs]
            assert frontier.materialize_f() == f
            replacement = {}
            for pair in pairs:
                other = data.draw(st.sampled_from(pairs))
                choice = data.draw(st.sampled_from(("keep", "send", "merge")))
                if choice == "send":
                    replacement[pair] = other
                elif choice == "merge":
                    replacement[pair] = (
                        manager.or_(pair[0], other[0]),
                        manager.or_(pair[1], other[1]),
                    )
            if replacement:
                frontier.apply(replacement)
                f, c = rebuild_with_replacements(
                    manager, f, c, boundary, replacement
                )
        assert frontier.materialize_f() == f

    @CRITERIA
    @BATCHINGS
    @given(
        instance=instance_strategy(5, nonzero_care=True),
        order_by_degree=st.booleans(),
        use_distance_weights=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_ref_as_the_reference_loop(
        self,
        criterion,
        batch_size,
        instance,
        order_by_degree,
        use_distance_weights,
    ):
        manager = Manager()
        f, c = build_instance(manager, *instance)
        want = textbook.opt_lv(
            manager,
            f,
            c,
            criterion,
            order_by_degree,
            use_distance_weights,
            batch_size,
        )
        got = opt_lv(
            manager,
            f,
            c,
            criterion=criterion,
            order_by_degree=order_by_degree,
            use_distance_weights=use_distance_weights,
            batch_size=batch_size,
        )
        assert got == want

    @CRITERIA
    @BATCHINGS
    def test_same_ref_on_recorded_suite_calls(self, criterion, batch_size):
        from repro.experiments.calls import collect_benchmark_calls

        record = collect_benchmark_calls("s386")
        manager = record.manager
        for call in record.calls:
            want = textbook.opt_lv(
                manager, call.f, call.c, criterion, batch_size=batch_size
            )
            got = opt_lv(
                manager,
                call.f,
                call.c,
                criterion=criterion,
                batch_size=batch_size,
            )
            assert got == want

    @CRITERIA
    @BATCHINGS
    @given(instance=instance_strategy(5, nonzero_care=True))
    @settings(max_examples=40, deadline=None)
    def test_skipped_boundaries_leave_the_pair_unchanged(
        self, criterion, batch_size, instance
    ):
        manager = Manager()
        f, c = build_instance(manager, *instance)
        for _, skipped, before, after in _reference_steps(
            manager, f, c, criterion, batch_size
        ):
            if skipped:
                assert after == before

    @CRITERIA
    @BATCHINGS
    def test_skipped_boundaries_on_recorded_suite_calls(
        self, criterion, batch_size
    ):
        """The lemma on real calls, where it does skip boundaries."""
        from repro.experiments.calls import collect_benchmark_calls

        record = collect_benchmark_calls("s386")
        skipped_count = 0
        for call in record.calls:
            for _, skipped, before, after in _reference_steps(
                record.manager, call.f, call.c, criterion, batch_size
            ):
                if skipped:
                    skipped_count += 1
                    assert after == before
        assert skipped_count > 0

    def test_batches_re_slice_after_a_merge(self):
        """With batch_size=2 a boundary with no node just above it can
        still merge, because the last merge re-sliced the batches; a
        pass that skipped it unconditionally would return a larger
        cover."""
        from repro.experiments.calls import collect_benchmark_calls

        record = collect_benchmark_calls("s386")
        manager = record.manager
        call = record.calls[29]
        changed_without_expansion = [
            boundary
            for boundary, _, before, after in _reference_steps(
                manager, call.f, call.c, Criterion.TSM, 2
            )
            if after != before
            and not _rooted_at(
                manager,
                gather_at_level(manager, *before, boundary - 1)[0],
                boundary - 1,
            )
        ]
        assert changed_without_expansion == [9]
        f, c = call.f, call.c
        for boundary in range(1, max(manager.support_multi((f, c))) + 2):
            pairs, _ = gather_at_level(manager, f, c, boundary - 1)
            if _rooted_at(manager, pairs, boundary - 1):
                f, c = minimize_at_level(
                    manager, f, c, boundary, batch_size=2
                )
        want = textbook.opt_lv(manager, call.f, call.c, batch_size=2)
        assert opt_lv(manager, call.f, call.c, batch_size=2) == want
        assert manager.size(f) > manager.size(want)

    def test_deep_chain_in_one_pass(self):
        """A chain deeper than the recursion limit (the reference loop
        takes seconds here: it re-gathers every level above each
        boundary)."""
        manager = Manager()
        levels = 2400
        manager.ensure_vars(levels)
        f, c = ONE, ZERO
        for level in range(levels - 1, -1, -1):
            if level % 2:
                c = manager.make_node(level, ONE, c)
            else:
                f = manager.make_node(level, f, ZERO)
        cover = opt_lv(manager, f, c)
        assert ISpec(manager, f, c).is_cover(cover)
