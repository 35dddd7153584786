"""Tests for the generic top-down sibling matcher (Figure 2)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.manager import Manager, ONE, ZERO
from repro.bdd.parser import parse_expression
from repro.core.criteria import Criterion
from repro.core.ispec import ISpec, parse_instance
from repro.core.levels import gather_at_level, rebuild_with_replacements
from repro.core.sibling import (
    TABLE2_HEURISTICS,
    constrain,
    generic_td,
    sibling_pass,
)

from tests.conftest import instance_strategy, build_instance
from tests.core import textbook


ALL_PARAMS = [
    (criterion, compl, nnv)
    for criterion in Criterion
    for compl in (False, True)
    for nnv in (False, True)
]


@given(instance_strategy(4, nonzero_care=True))
@settings(max_examples=40)
def test_result_is_always_a_cover(instance):
    """The fundamental invariant for every Table 2 parameter point."""
    manager = Manager()
    f, c = build_instance(manager, *instance)
    spec = ISpec(manager, f, c)
    for criterion, compl, nnv in ALL_PARAMS:
        cover = generic_td(
            manager, f, c, criterion, match_complement=compl, no_new_vars=nnv
        )
        assert spec.is_cover(cover), (criterion, compl, nnv)


@given(instance_strategy(4, nonzero_care=True))
@settings(max_examples=40)
def test_no_new_variables_outside_union_support(instance):
    """§3.2: no algorithm introduces vars outside support(f) ∪ support(c)."""
    manager = Manager()
    f, c = build_instance(manager, *instance)
    union = manager.support_multi((f, c))
    for criterion, compl, nnv in ALL_PARAMS:
        cover = generic_td(
            manager, f, c, criterion, match_complement=compl, no_new_vars=nnv
        )
        assert manager.support(cover) <= union


@given(instance_strategy(4, nonzero_care=True))
@settings(max_examples=40)
def test_no_new_vars_keeps_f_support(instance):
    """With nnv, the result's support stays within f's support."""
    manager = Manager()
    f, c = build_instance(manager, *instance)
    f_support = manager.support(f)
    for criterion in (Criterion.OSDM, Criterion.OSM):
        cover = generic_td(manager, f, c, criterion, no_new_vars=True)
        assert manager.support(cover) <= f_support


class TestSpecialCases:
    def test_full_care_returns_f(self):
        manager = Manager(["a", "b"])
        f = parse_expression(manager, "a ^ b")
        for criterion, compl, nnv in ALL_PARAMS:
            assert generic_td(manager, f, ONE, criterion, compl, nnv) == f

    def test_empty_care_returns_one(self):
        manager = Manager(["a"])
        f = manager.var(0)
        for criterion, compl, nnv in ALL_PARAMS:
            assert generic_td(manager, f, ZERO, criterion, compl, nnv) == ONE

    def test_care_within_onset_gives_constant_one(self):
        """§3.1: when 0 ≠ c ≤ f, all algorithms return the 1 function."""
        manager = Manager(["a", "b"])
        f = parse_expression(manager, "a | b")
        c = parse_expression(manager, "a & b")
        for criterion, compl, nnv in ALL_PARAMS:
            assert generic_td(manager, f, c, criterion, compl, nnv) == ONE

    def test_care_within_offset_gives_constant_zero(self):
        """§3.1: when c ≤ ¬f, the 0 function is returned."""
        manager = Manager(["a", "b"])
        f = parse_expression(manager, "a & b")
        c = parse_expression(manager, "~a & ~b")
        for criterion, compl, nnv in ALL_PARAMS:
            assert generic_td(manager, f, c, criterion, compl, nnv) == ZERO

    def test_constant_f_returned_as_is(self):
        manager = Manager(["a"])
        c = manager.var(0)
        for criterion, compl, nnv in ALL_PARAMS:
            assert generic_td(manager, ONE, c, criterion, compl, nnv) == ONE
            assert generic_td(manager, ZERO, c, criterion, compl, nnv) == ZERO


class TestComplementMatching:
    def test_complement_match_finds_xor_structure(self):
        """[f, c] where the care points force f = a ⊕ b: complement
        matching recognizes the then/else branches as complements."""
        manager = Manager()
        spec = parse_instance(manager, "01 10")
        with_compl = generic_td(
            manager, spec.f, spec.c, Criterion.OSM, match_complement=True
        )
        assert ISpec(manager, spec.f, spec.c).is_cover(with_compl)

    def test_complement_flag_never_hurts_validity(self):
        manager = Manager()
        spec = parse_instance(manager, "1d d0 0d d1")
        for criterion in Criterion:
            cover = generic_td(
                manager, spec.f, spec.c, criterion, match_complement=True
            )
            assert spec.is_cover(cover)


class _Recording(Manager):
    """A manager that logs every ``make_node`` and ``ite`` call."""

    def __init__(self):
        self.calls = []
        super().__init__()

    def make_node(self, level, high, low):
        self.calls.append(("make_node", level, high, low))
        return super().make_node(level, high, low)

    def ite(self, f, g, h):
        self.calls.append(("ite", f, g, h))
        return super().ite(f, g, h)


def _twins(instance):
    """The instance built in two fresh recording managers.

    Both hold identical refs, so running the library on one and the
    textbook recursion on the other must give identical results *and*
    identical manager call logs — the same work, in the same order.
    """
    twins = []
    for _ in range(2):
        manager = _Recording()
        f, c = build_instance(manager, *instance)
        manager.calls.clear()
        twins.append((manager, f, c))
    return twins


class TestAgainstTextbookOperators:
    """The generic algorithm specializes exactly to constrain/restrict."""

    @given(instance_strategy(4, nonzero_care=True))
    @settings(max_examples=60)
    def test_generic_osdm_equals_classic_constrain(self, instance):
        (left, f1, c1), (right, f2, c2) = _twins(instance)
        assert generic_td(left, f1, c1, Criterion.OSDM) == (
            textbook.constrain(right, f2, c2)
        )
        assert left.calls == right.calls

    @given(instance_strategy(4, nonzero_care=True))
    @settings(max_examples=60)
    def test_generic_osdm_nnv_equals_classic_restrict(self, instance):
        (left, f1, c1), (right, f2, c2) = _twins(instance)
        assert generic_td(
            left, f1, c1, Criterion.OSDM, no_new_vars=True
        ) == textbook.restrict(right, f2, c2)
        assert left.calls == right.calls

    def test_constrain_is_shannon_cofactor_on_cube(self):
        """Touati et al.: constrain(f, cube) = f restricted by the cube."""
        manager = Manager(["a", "b", "c"])
        f = parse_expression(manager, "(a & b) | (~a & c)")
        cube = parse_expression(manager, "a & ~b")
        got = constrain(manager, f, cube)
        expected = manager.restrict_cube(f, {0: True, 1: False})
        assert got == expected


class TestAgainstTextbookWalks:
    """The explicit-stack walks match their recursive statements."""

    @given(
        instance_strategy(5),
        st.sampled_from(ALL_PARAMS),
        st.integers(0, 6),
        st.integers(0, 6),
    )
    @settings(max_examples=80)
    def test_sibling_pass_windows(self, instance, params, lo, hi):
        criterion, compl, nnv = params
        (left, f1, c1), (right, f2, c2) = _twins(instance)
        got = sibling_pass(left, f1, c1, criterion, compl, nnv, lo, hi)
        want = textbook.sibling_pass(
            right, f2, c2, criterion, compl, nnv, lo, hi
        )
        assert got == want
        assert left.calls == right.calls

    @given(instance_strategy(5), st.integers(0, 5), st.data())
    @settings(max_examples=60)
    def test_gather_and_rebuild(self, instance, boundary, data):
        (left, f1, c1), (right, f2, c2) = _twins(instance)
        pairs, paths = gather_at_level(left, f1, c1, boundary)
        twin_pairs, twin_paths = textbook.gather_at_level(
            right, f2, c2, boundary
        )
        assert (pairs, paths) == (twin_pairs, twin_paths)
        # Any map between gathered pairs exercises the substitution;
        # each twin gets the same map over its own refs.
        size = len(pairs)
        targets = data.draw(
            st.lists(st.integers(0, size - 1), min_size=size, max_size=size)
        )
        got = rebuild_with_replacements(
            left,
            f1,
            c1,
            boundary,
            {pair: pairs[index] for pair, index in zip(pairs, targets)},
        )
        want = textbook.rebuild_with_replacements(
            right,
            f2,
            c2,
            boundary,
            {
                pair: twin_pairs[index]
                for pair, index in zip(twin_pairs, targets)
            },
        )
        assert got == want
        assert left.calls == right.calls


class TestTable2Heuristics:
    def test_names_and_parameters(self):
        by_name = {heuristic.name: heuristic for heuristic in TABLE2_HEURISTICS}
        assert by_name["constrain"].criterion is Criterion.OSDM
        assert not by_name["constrain"].match_complement
        assert not by_name["constrain"].no_new_vars
        assert by_name["restrict"].no_new_vars
        assert by_name["osm_bt"].match_complement
        assert by_name["osm_bt"].no_new_vars
        assert by_name["tsm_cp"].match_complement

    def test_callable_protocol(self):
        manager = Manager()
        spec = parse_instance(manager, "d1 01")
        for heuristic in TABLE2_HEURISTICS:
            cover = heuristic(manager, spec.f, spec.c)
            assert spec.is_cover(cover)
