"""RefSanitizer: tagging, cross-manager and stale-generation detection."""

import pytest

from repro.analysis.errors import SanitizerError
from repro.analysis.sanitize import (
    SanitizedManager,
    SanitizedRef,
    sanitizing_enabled,
)
from repro.bdd.manager import ONE, ZERO, Manager
from repro.bdd.truthtable import bdd_from_leaves
from repro.bdd.wire import deserialize, serialize


@pytest.fixture
def pair():
    return (
        SanitizedManager(["a", "b", "c"]),
        SanitizedManager(["a", "b", "c"]),
    )


def test_results_come_back_tagged(pair):
    manager, _ = pair
    f = manager.and_(manager.var(0), manager.var(1))
    assert isinstance(f, SanitizedRef)
    assert f.manager_id == manager.manager_id
    assert f.generation == manager.gc_generation


def test_tagged_ref_behaves_like_int(pair):
    manager, _ = pair
    f = manager.var(0)
    assert f == int(f)
    assert hash(f) == hash(int(f))
    assert {f: "x"}[int(f)] == "x"
    # Derived arithmetic drops the tag and is accepted unchecked.
    assert manager.size(f ^ 1) == manager.size(manager.not_(f))


def test_cross_manager_use_raises(pair):
    first, second = pair
    f = first.and_(first.var(0), first.var(1))
    with pytest.raises(SanitizerError, match="minted by manager"):
        second.size(f)


def test_cross_manager_inside_containers(pair):
    first, second = pair
    f = first.var(0)
    with pytest.raises(SanitizerError):
        second.and_many([second.var(0), f])
    with pytest.raises(SanitizerError):
        second.validate((second.var(1), f))


def test_cross_manager_inside_iterators(pair):
    first, second = pair
    f = first.var(0)
    with pytest.raises(SanitizerError):
        second.and_many(ref for ref in (second.var(0), f))
    with pytest.raises(SanitizerError):
        second.size_multi(ref for ref in (second.var(1), f))
    with pytest.raises(SanitizerError):
        second.nodes_reachable(iter((second.var(2), f)))
    # A checked iterator still hands every item to the method.
    variables = [second.var(level) for level in range(3)]
    assert second.and_many(iter(variables)) == second.and_many(variables)


def test_stale_generation_raises(pair):
    manager, _ = pair
    f = manager.or_(manager.var(0), manager.var(2))
    remap = manager.gc((f,), compact=True)
    with pytest.raises(SanitizerError, match="gc generation"):
        manager.size(f)
    fresh = manager.gc((remap(f),), compact=False)
    assert fresh is None


def test_remap_translates_and_retags(pair):
    manager, _ = pair
    f = manager.xor(manager.var(0), manager.var(1))
    size_before = manager.size(f)
    remap = manager.gc((f,), compact=True)
    fresh = remap(f)
    assert isinstance(fresh, SanitizedRef)
    assert fresh.generation == manager.gc_generation
    assert manager.size(fresh) == size_before


def test_double_remap_raises(pair):
    manager, _ = pair
    f = manager.var(1)
    remap = manager.gc((f,), compact=True)
    fresh = remap(f)
    with pytest.raises(SanitizerError, match="double translation"):
        remap(fresh)


def test_untagged_ints_accepted(pair):
    manager, _ = pair
    # Constants and refs from unsanitized code are plain ints; the
    # sanitizer is best-effort and lets them through unchecked.
    assert manager.size(ONE) == 1
    assert manager.and_(ONE, int(manager.var(0))) == manager.var(0)


def test_branches_tag_outputs(pair):
    manager, _ = pair
    f = manager.xor(manager.var(0), manager.var(1))
    level, then_f, else_f = manager.top_branches(f)
    assert level == 0
    assert isinstance(then_f, SanitizedRef)
    assert isinstance(else_f, SanitizedRef)
    then_f2, else_f2 = manager.branches(f, level)
    assert (then_f2, else_f2) == (then_f, else_f)


def test_constants_stay_untagged(pair):
    manager, other = pair
    f = manager.and_(manager.var(0), manager.var(1))
    _, _, else_f = manager.top_branches(f)
    # The else branch of a conjunction is ZERO: manager-independent,
    # so it comes back as a plain int another manager will accept.
    assert type(else_f) is int
    assert other.size(else_f) == 1


def test_wire_round_trip_through_public_api(pair):
    manager, _ = pair
    f = bdd_from_leaves(manager, [True, False, True, False, False, True, True, False])
    blob = serialize(manager, (f,))
    rebuilt, roots = deserialize(blob)
    assert rebuilt.size(roots[0]) == manager.size(f)


def test_gc_checks_roots_from_other_manager(pair):
    first, second = pair
    f = first.var(0)
    with pytest.raises(SanitizerError):
        second.gc((f,), compact=True)


def test_sanitizer_counts_checks(pair):
    manager, _ = pair
    before = manager.sanitizer_checks
    f = manager.var(0)
    manager.size(f)
    assert manager.sanitizer_checks > before


def test_sanitizing_enabled_reads_environment(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert not sanitizing_enabled()
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert sanitizing_enabled()
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert not sanitizing_enabled()


@pytest.mark.skipif(
    sanitizing_enabled(),
    reason="REPRO_SANITIZE=1 rebinds Manager to SanitizedManager by design",
)
def test_plain_manager_is_untouched():
    # The off-path guarantee: an ordinary Manager mints plain ints.
    manager = Manager(["a"])
    assert type(manager.var(0)) is int
