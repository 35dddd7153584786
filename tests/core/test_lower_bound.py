"""Tests for the Theorem 7-based cube lower bound (§4.1.1)."""

import pytest
from hypothesis import given, settings

from repro.bdd.manager import Manager, ONE, ZERO
from repro.bdd.parser import parse_expression
from repro.core import sibling
from repro.core.exact import exact_minimum_size
from repro.core.lower_bound import cube_lower_bound
from repro.core.registry import HEURISTICS

from tests.conftest import instance_strategy, build_instance


@given(instance_strategy(3, nonzero_care=True))
@settings(max_examples=50)
def test_bound_never_exceeds_exact_minimum(instance):
    manager = Manager()
    f, c = build_instance(manager, *instance)
    bound = cube_lower_bound(manager, f, c)
    assert bound <= exact_minimum_size(manager, f, c)


@given(instance_strategy(4, nonzero_care=True))
@settings(max_examples=25)
def test_bound_never_exceeds_any_heuristic(instance):
    manager = Manager()
    f, c = build_instance(manager, *instance)
    bound = cube_lower_bound(manager, f, c)
    for name in ("constrain", "restrict", "osm_bt", "tsm_td", "opt_lv"):
        cover = HEURISTICS[name](manager, f, c)
        assert bound <= manager.size(cover), name


def test_full_care_bound_is_f_size():
    """c = 1 has the single (empty) cube; constrain(f, 1) = f."""
    manager = Manager(["a", "b"])
    f = parse_expression(manager, "a ^ b")
    assert cube_lower_bound(manager, f, ONE) == manager.size(f)


def test_empty_care_bound_is_one():
    manager = Manager(["a"])
    assert cube_lower_bound(manager, manager.var(0), ZERO) == 1


def test_bound_monotone_in_cube_limit():
    manager = Manager()
    from repro.core.ispec import parse_instance

    spec = parse_instance(manager, "1d d1 d0 0d 01 11 d1 0d")
    small = cube_lower_bound(manager, spec.f, spec.c, cube_limit=1)
    large = cube_lower_bound(manager, spec.f, spec.c, cube_limit=1000)
    assert small <= large


def test_bound_is_attainable_sometimes():
    """On a cube-care instance the bound equals the optimum (Theorem 7)."""
    manager = Manager(["a", "b", "c"])
    f = parse_expression(manager, "(a & b) | c")
    cube = parse_expression(manager, "a & ~b")
    bound = cube_lower_bound(manager, f, cube)
    assert bound == exact_minimum_size(manager, f, cube)


def _constrain_lower_bound(manager, f, c, cube_limit):
    """The bound as the paper states it: constrain by each cube."""
    if c == ZERO:
        return 1
    sizes = [
        manager.size(sibling.constrain(manager, f, manager.cube_ref(cube)))
        for cube in manager.cubes(c, limit=cube_limit)
    ]
    return max(sizes + [1])


@pytest.mark.parametrize("cube_limit", [1, 1000])
@given(instance=instance_strategy(4))
@settings(max_examples=60)
def test_cofactor_bound_matches_constrain_bound(cube_limit, instance):
    manager = Manager()
    f, c = build_instance(manager, *instance)
    assert cube_lower_bound(
        manager, f, c, cube_limit=cube_limit
    ) == _constrain_lower_bound(manager, f, c, cube_limit)


def test_bound_runs_no_match_test(monkeypatch):
    calls = []
    original = sibling.try_match

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(sibling, "try_match", counting)
    manager = Manager()
    from repro.core.ispec import parse_instance

    spec = parse_instance(manager, "1d d1 d0 0d 01 11 d1 0d")
    assert cube_lower_bound(manager, spec.f, spec.c) >= 1
    assert calls == []
    # The reference form does run match tests, so the spy sees them.
    _constrain_lower_bound(manager, spec.f, spec.c, 1000)
    assert calls
