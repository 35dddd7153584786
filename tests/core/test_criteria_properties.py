"""Table 1: relational properties of the matching criteria.

osdm: not reflexive, not symmetric, transitive.
osm:  reflexive, not symmetric, transitive.
tsm:  reflexive, symmetric, not transitive.

Plus the strength hierarchy (osdm ⇒ osm ⇒ tsm) and the correctness of
the produced i-covers.
"""

from hypothesis import given, settings, strategies as st

from repro.bdd.manager import Manager, ONE, ZERO
from repro.core.criteria import (
    Criterion,
    i_cover_of_match,
    matches,
    osdm_matches,
    osm_matches,
    tsm_matches,
    try_match,
)
from repro.core.ispec import ISpec

from tests.conftest import instance_strategy, build_instance

NUM_VARS = 3

pair_of_instances = st.tuples(instance_strategy(NUM_VARS), instance_strategy(NUM_VARS))
triple_of_instances = st.tuples(
    instance_strategy(NUM_VARS),
    instance_strategy(NUM_VARS),
    instance_strategy(NUM_VARS),
)


# ----------------------------------------------------------------------
# Hierarchy: osdm match ⇒ osm match ⇒ tsm match
# ----------------------------------------------------------------------
@given(pair_of_instances)
def test_strength_hierarchy(instances):
    manager = Manager()
    f1, c1 = build_instance(manager, *instances[0])
    f2, c2 = build_instance(manager, *instances[1])
    if osdm_matches(manager, f1, c1, f2, c2):
        assert osm_matches(manager, f1, c1, f2, c2)
    if osm_matches(manager, f1, c1, f2, c2):
        assert tsm_matches(manager, f1, c1, f2, c2)


# ----------------------------------------------------------------------
# Reflexivity
# ----------------------------------------------------------------------
@given(instance_strategy(NUM_VARS))
def test_osm_and_tsm_reflexive(instance):
    manager = Manager()
    f, c = build_instance(manager, *instance)
    assert osm_matches(manager, f, c, f, c)
    assert tsm_matches(manager, f, c, f, c)


def test_osdm_not_reflexive():
    manager = Manager(["a"])
    a = manager.var(0)
    assert not osdm_matches(manager, a, ONE, a, ONE)
    # Only a fully-don't-care function matches itself under osdm.
    assert osdm_matches(manager, a, ZERO, a, ZERO)


# ----------------------------------------------------------------------
# Symmetry
# ----------------------------------------------------------------------
def test_osdm_not_symmetric():
    manager = Manager(["a"])
    a = manager.var(0)
    assert osdm_matches(manager, a, ZERO, a, ONE)
    assert not osdm_matches(manager, a, ONE, a, ZERO)


def test_osm_not_symmetric():
    manager = Manager(["a"])
    a = manager.var(0)
    # [a, a] osm [a, 1]: agrees on c1 = a, and c1 <= c2 = 1.
    assert osm_matches(manager, a, a, a, ONE)
    assert not osm_matches(manager, a, ONE, a, a)


@given(pair_of_instances)
def test_tsm_symmetric(instances):
    manager = Manager()
    f1, c1 = build_instance(manager, *instances[0])
    f2, c2 = build_instance(manager, *instances[1])
    assert tsm_matches(manager, f1, c1, f2, c2) == tsm_matches(
        manager, f2, c2, f1, c1
    )


# ----------------------------------------------------------------------
# Transitivity
# ----------------------------------------------------------------------
@given(triple_of_instances)
@settings(max_examples=60)
def test_osdm_transitive(instances):
    manager = Manager()
    pairs = [build_instance(manager, *inst) for inst in instances]
    (f1, c1), (f2, c2), (f3, c3) = pairs
    if osdm_matches(manager, f1, c1, f2, c2) and osdm_matches(
        manager, f2, c2, f3, c3
    ):
        assert osdm_matches(manager, f1, c1, f3, c3)


@given(triple_of_instances)
@settings(max_examples=60)
def test_osm_transitive(instances):
    manager = Manager()
    pairs = [build_instance(manager, *inst) for inst in instances]
    (f1, c1), (f2, c2), (f3, c3) = pairs
    if osm_matches(manager, f1, c1, f2, c2) and osm_matches(
        manager, f2, c2, f3, c3
    ):
        assert osm_matches(manager, f1, c1, f3, c3)


def test_tsm_not_transitive():
    """A concrete witness: both-match via disjoint cares fails to chain."""
    manager = Manager(["a"])
    a = manager.var(0)
    # [1, a] tsm [d, 0] and [d, 0] tsm [0, ¬a]: middle is all-DC.
    assert tsm_matches(manager, ONE, a, ZERO, ZERO)
    assert tsm_matches(manager, ZERO, ZERO, ZERO, a ^ 1)
    # But [1, a] and [0, ¬a] conflict nowhere... both cares disjoint, so
    # they actually *do* match; use overlapping cares instead.
    assert not tsm_matches(manager, ONE, ONE, ZERO, ONE)
    # Chain: [1,1] tsm [d,0] tsm [0,1] but NOT [1,1] tsm [0,1].
    assert tsm_matches(manager, ONE, ONE, ZERO, ZERO)
    assert tsm_matches(manager, ZERO, ZERO, ZERO, ONE)
    assert not tsm_matches(manager, ONE, ONE, ZERO, ONE)


# ----------------------------------------------------------------------
# i-cover production (Section 3.1.1)
# ----------------------------------------------------------------------
@given(pair_of_instances)
def test_produced_icover_covers_both(instances):
    """When a criterion matches, the produced i-cover i-covers both."""
    manager = Manager()
    f1, c1 = build_instance(manager, *instances[0])
    f2, c2 = build_instance(manager, *instances[1])
    for criterion in Criterion:
        if matches(criterion, manager, f1, c1, f2, c2):
            g, cg = i_cover_of_match(criterion, manager, f1, c1, f2, c2)
            common = ISpec(manager, g, cg)
            assert common.i_covers(ISpec(manager, f1, c1))
            assert common.i_covers(ISpec(manager, f2, c2))


@given(pair_of_instances)
def test_care_monotonically_grows(instances):
    """The i-cover's care set contains both inputs' care sets (§3.1)."""
    manager = Manager()
    f1, c1 = build_instance(manager, *instances[0])
    f2, c2 = build_instance(manager, *instances[1])
    for criterion in Criterion:
        if matches(criterion, manager, f1, c1, f2, c2):
            _, cg = i_cover_of_match(criterion, manager, f1, c1, f2, c2)
            assert manager.leq(c1, cg)
            assert manager.leq(c2, cg)


@given(pair_of_instances)
@settings(max_examples=60)
def test_try_match_result_valid(instances):
    """try_match (both directions, both polarities) yields true i-covers."""
    manager = Manager()
    f1, c1 = build_instance(manager, *instances[0])
    f2, c2 = build_instance(manager, *instances[1])
    for criterion in Criterion:
        plain = try_match(criterion, manager, f1, c1, f2, c2)
        if plain is not None:
            common = ISpec(manager, plain[0], plain[1])
            assert common.i_covers(ISpec(manager, f1, c1))
            assert common.i_covers(ISpec(manager, f2, c2))
        flipped = try_match(
            criterion, manager, f1, c1, f2, c2, complemented=True
        )
        if flipped is not None:
            common = ISpec(manager, flipped[0], flipped[1])
            assert common.i_covers(ISpec(manager, f1, c1))
            assert common.i_covers(ISpec(manager, f2 ^ 1, c2))


def _try_match_by_definition(
    criterion, manager, f1, c1, f2, c2, complemented=False
):
    """``try_match`` spelled as Definition 5's predicate plus the
    i-cover, forward and then (for osdm and osm) backward."""
    g2 = f2 ^ 1 if complemented else f2
    if matches(criterion, manager, f1, c1, g2, c2):
        return i_cover_of_match(criterion, manager, f1, c1, g2, c2)
    if criterion is not Criterion.TSM and matches(
        criterion, manager, g2, c2, f1, c1
    ):
        return f1, c1
    return None


@given(
    pair_of_instances,
    st.sampled_from(["free", "same_f", "same_c", "zero_c1", "zero_c2"]),
)
@settings(max_examples=100, deadline=None)
def test_try_match_is_matches_plus_i_cover(instances, tie):
    """try_match calls agree directly; it must return what matches and
    i_cover_of_match return, after the same agree walks on the same
    operands in the same order (same steps, same memo)."""
    direct, by_definition = Manager(), Manager()
    for criterion in Criterion:
        for complemented in (False, True):
            outcomes = []
            for manager, match in (
                (direct, try_match),
                (by_definition, _try_match_by_definition),
            ):
                f1, c1 = build_instance(manager, *instances[0])
                f2, c2 = build_instance(manager, *instances[1])
                if tie == "same_f":
                    f2 = f1
                elif tie == "same_c":
                    c2 = c1
                elif tie == "zero_c1":
                    c1 = ZERO
                elif tie == "zero_c2":
                    c2 = ZERO
                found = match(
                    criterion, manager, f1, c1, f2, c2,
                    complemented=complemented,
                )
                outcomes.append(
                    (
                        found,
                        manager.statistics()["agree_steps"],
                        dict(manager.cache("agree")),
                    )
                )
            assert outcomes[0] == outcomes[1]


def test_osdm_tsm_produced_forms():
    """The literal i-cover forms from Section 3.1.1."""
    manager = Manager(["a", "b"])
    a, b = manager.var(0), manager.var(1)
    # osdm/osm: second function returned untouched.
    got = i_cover_of_match(Criterion.OSDM, manager, a, ZERO, b, ONE)
    assert got == (b, ONE)
    got = i_cover_of_match(Criterion.OSM, manager, b, b, b, ONE)
    assert got == (b, ONE)
    # tsm: [f1 c1 + f2 c2, c1 + c2].
    got = i_cover_of_match(Criterion.TSM, manager, a, b, ONE, b ^ 1)
    expected_f = manager.or_(manager.and_(a, b), b ^ 1)
    assert got == (expected_f, ONE)
