"""The fuzz driver: determinism, metrics, and the planted-bug drill.

The last test is the subsystem's acceptance criterion end to end: a
deliberately planted heuristic bug must be caught by an oracle, shrunk
to a reproducer of at most 8 variables, and the emitted pytest stub
must fail while the bug is registered and pass once it is fixed.
"""

import multiprocessing

import pytest

from repro.core.registry import (
    HEURISTICS,
    register_heuristic,
    unregister_heuristic,
)
from repro.obs import metrics as obs_metrics
from repro.verify import FuzzConfig, run_fuzz

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="serving lanes require the fork start method",
)

QUICK = dict(size=2, num_vars=5, families=("random_dnf", "random_dag"))


def test_clean_run_is_ok_and_deterministic():
    config = FuzzConfig(
        seed=40, methods=("constrain", "osm_bt"), shrink=False, **QUICK
    )
    first = run_fuzz(config)
    second = run_fuzz(config)
    assert first.ok
    assert first.fingerprint() == second.fingerprint()
    assert first.corpus_fingerprints == second.corpus_fingerprints


def test_fingerprint_sees_one_changed_cover_byte():
    import dataclasses

    config = FuzzConfig(
        seed=40, methods=("constrain", "osm_bt"), shrink=False, **QUICK
    )
    report = run_fuzz(config)
    assert report.covers
    digest, method, cover = report.covers[0]
    last = int(cover[-2:], 16)
    changed = list(report.covers)
    changed[0] = (digest, method, cover[:-2] + "%02x" % (last ^ 1))
    same = dataclasses.replace(report, covers=list(report.covers))
    other = dataclasses.replace(report, covers=changed)
    assert same.fingerprint() == report.fingerprint()
    assert other.fingerprint() != report.fingerprint()


def test_deep_chains_pass_oracles_and_lanes():
    """Chains deeper than the recursion limit: the default fuzz
    heuristics, the oracles and the in-process lane all complete.  (The
    permutation oracle, whose reversed-order rebuild is quadratic in the
    chain length, runs in the CI deep-chain drill instead.)"""
    from repro.verify.oracles import ORACLE_NAMES

    oracles = tuple(name for name in ORACLE_NAMES if name != "permutation")
    config = FuzzConfig(
        seed=2026,
        size=1,
        families=("deep_chain",),
        oracles=oracles,
        shrink=False,
    )
    report = run_fuzz(config)
    assert report.ok, report.oracle_findings


def test_different_seeds_give_different_fingerprints():
    base = dict(methods=("constrain",), shrink=False, **QUICK)
    assert (
        run_fuzz(FuzzConfig(seed=1, **base)).fingerprint()
        != run_fuzz(FuzzConfig(seed=2, **base)).fingerprint()
    )


def test_rounds_accumulate_instances():
    config = FuzzConfig(
        seed=7, rounds=2, methods=("constrain",), shrink=False, **QUICK
    )
    report = run_fuzz(config)
    assert report.instances == 2 * 2 * len(QUICK["families"])
    assert len(report.corpus_fingerprints) == 2
    assert report.corpus_fingerprints[0] != report.corpus_fingerprints[1]


def test_metrics_flow_into_active_registry():
    config = FuzzConfig(
        seed=3, methods=("constrain",), shrink=False, **QUICK
    )
    with obs_metrics.collecting() as registry:
        report = run_fuzz(config)
    counters = registry.snapshot()["counters"]
    assert counters["verify.instances"] == report.instances
    assert counters["verify.oracle_checks"] == report.oracle_checks
    assert counters["verify.lane_requests"] == report.lane_requests


def test_unknown_lane_rejected():
    with pytest.raises(ValueError, match="unknown lanes"):
        run_fuzz(FuzzConfig(lanes=("teleport",)))


@needs_fork
def test_pool_and_gateway_lanes_conform():
    config = FuzzConfig(
        seed=11,
        methods=("osm_bt",),
        lanes=("inprocess", "pool", "gateway"),
        shrink=False,
        **QUICK,
    )
    report = run_fuzz(config)
    assert report.ok, (report.oracle_findings, report.lane_violations)
    assert set(report.lane_status_counts) == {
        "inprocess",
        "pool",
        "gateway",
    }


def test_planted_bug_caught_shrunk_and_stub_flips(tmp_path):
    """The acceptance drill: catch → shrink ≤ 8 vars → stub fails/passes."""

    def buggy(manager, f, c):
        return f ^ 1

    register_heuristic("buggy_fuzz", buggy, replace=True)
    try:
        config = FuzzConfig(
            seed=19,
            methods=("buggy_fuzz",),
            families=("random_dnf",),
            size=1,
            num_vars=8,
            shrink=True,
            output_dir=str(tmp_path),
        )
        report = run_fuzz(config)
        assert not report.ok
        assert any(
            record["oracle"] == "cover"
            for record in report.oracle_findings
        )
        assert report.shrunk, "shrinker produced nothing"
        for record in report.shrunk:
            assert record["num_vars"] <= 8
            assert record["num_vars"] <= record["original_num_vars"]
        assert report.reproducers
        stub_source = open(report.reproducers[0].stub_path).read()

        # Before the fix: the stub must FAIL (bug still registered).
        namespace = {}
        exec(
            compile(stub_source, report.reproducers[0].stub_path, "exec"),
            namespace,
        )
        with pytest.raises(AssertionError):
            namespace["test_shrunk_reproducer"]()

        # After the fix: re-register an honest implementation under the
        # same name; the same stub must PASS.
        register_heuristic(
            "buggy_fuzz", HEURISTICS["restrict"], replace=True
        )
        namespace["test_shrunk_reproducer"]()
    finally:
        unregister_heuristic("buggy_fuzz")


def test_shrink_dedups_failure_signatures(tmp_path):
    def buggy(manager, f, c):
        return f ^ 1

    register_heuristic("buggy_fuzz_dedup", buggy, replace=True)
    try:
        config = FuzzConfig(
            seed=23,
            methods=("buggy_fuzz_dedup",),
            families=("random_dnf",),
            size=3,
            num_vars=5,
            oracles=("cover",),
            shrink=True,
            output_dir=str(tmp_path),
        )
        report = run_fuzz(config)
        # Three failing instances, one signature: exactly one shrink.
        assert len(report.oracle_findings) == 3
        assert len(report.shrunk) == 1
    finally:
        unregister_heuristic("buggy_fuzz_dedup")
