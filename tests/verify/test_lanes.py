"""Differential lanes: agreement, typed degradations, violation rules."""

import multiprocessing

import pytest

from repro.verify.corpus import Corpus
from repro.verify.lanes import (
    COMPLETED,
    DEGRADED,
    ERROR,
    GatewayLane,
    InProcessLane,
    LaneResult,
    PoolLane,
    build_lane,
    differential_violations,
    group_by_request,
)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool lanes require the fork start method",
)

METHODS = ["osm_bt", "restrict"]


def _instances():
    return Corpus(
        families=("random_dnf",), size=2, num_vars=5, seed=17
    ).generate()


def test_inprocess_lane_completes_with_valid_covers():
    instances = _instances()
    results = InProcessLane().run(instances, METHODS)
    assert len(results) == len(instances) * len(METHODS)
    assert {r.status for r in results} == {COMPLETED}
    by_inst = {i.digest: i for i in instances}
    for (digest, method), grouped in group_by_request(results).items():
        assert differential_violations(
            by_inst[digest], method, grouped
        ) == []


@needs_fork
def test_pool_lane_agrees_with_inprocess_byte_for_byte():
    instances = _instances()
    reference = InProcessLane().run(instances, METHODS)
    pooled = PoolLane(workers=2).run(instances, METHODS)
    ref_by_key = {
        (r.instance.digest, r.method): r.cover_payload for r in reference
    }
    for result in pooled:
        assert result.status == COMPLETED
        key = (result.instance.digest, result.method)
        assert result.cover_payload == ref_by_key[key]
    by_inst = {i.digest: i for i in instances}
    for (digest, method), grouped in group_by_request(
        reference + pooled
    ).items():
        assert differential_violations(
            by_inst[digest], method, grouped
        ) == []


@needs_fork
def test_gateway_lane_batches_agree_with_pool_lane_byte_for_byte():
    # The multi-cell envelope differential: the gateway lane submits
    # each instance's cells as one batch, the pool lane sends batches
    # of one; canonical covers must be byte-identical.
    instances = _instances()
    single = PoolLane(workers=2).run(instances, METHODS)
    batched = GatewayLane(workers=2).run(instances, METHODS)
    assert len(batched) == len(single)
    by_key = {(r.instance.digest, r.method): r.cover_payload for r in single}
    for result in batched:
        assert result.status == COMPLETED
        key = (result.instance.digest, result.method)
        assert result.cover_payload == by_key[key]


def test_disagreeing_completed_lanes_are_a_violation():
    instances = _instances()
    instance = instances[0]
    results = InProcessLane().run([instance], ["restrict"])
    # Fabricate a second lane that "completed" with the identity f
    # (a valid cover, but byte-different from restrict's result).
    manager, f, c = instance.decode()
    from repro.bdd.wire import serialize

    impostor = LaneResult(
        lane="pool",
        instance=instance,
        method="restrict",
        status=COMPLETED,
        cover_payload=serialize(manager, (f,)),
    )
    if impostor.cover_payload == results[0].cover_payload:
        pytest.skip("restrict returned the identity on this instance")
    violations = differential_violations(
        instance, "restrict", list(results) + [impostor]
    )
    assert any("disagree" in message for message in violations)


def test_invalid_completed_cover_is_a_violation():
    instance = _instances()[0]
    manager, f, c = instance.decode()
    from repro.bdd.wire import serialize

    bad = LaneResult(
        lane="inprocess",
        instance=instance,
        method="osm_bt",
        status=COMPLETED,
        cover_payload=serialize(manager, (f ^ 1,)),
    )
    violations = differential_violations(instance, "osm_bt", [bad])
    assert any("Definition 2" in message for message in violations)


def test_untyped_degradation_is_a_violation():
    instance = _instances()[0]
    silent = LaneResult(
        lane="pool",
        instance=instance,
        method="osm_bt",
        status=DEGRADED,
        cover_payload=None,
        reason=None,
    )
    violations = differential_violations(instance, "osm_bt", [silent])
    assert any("untyped degradation" in message for message in violations)


def test_error_results_are_always_violations():
    instance = _instances()[0]
    escaped = LaneResult(
        lane="chaos",
        instance=instance,
        method="osm_bt",
        status=ERROR,
        reason="untyped ValueError: boom",
    )
    violations = differential_violations(instance, "osm_bt", [escaped])
    assert violations == ["chaos:osm_bt on %s: untyped ValueError: boom"
                          % instance.label]


def test_build_lane_vocabulary():
    for name in ("inprocess", "pool", "gateway", "chaos"):
        assert build_lane(name).name == name
    with pytest.raises(ValueError, match="unknown lane"):
        build_lane("bogus")
