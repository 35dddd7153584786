"""Corpus framework: the pisek determinism contract and the family API."""

import sys

import pytest

from repro.bdd.cover import is_def2_cover
from repro.bdd.manager import ONE, ZERO
from repro.bdd.wire import deserialize_instance, serialize_instance
from repro.verify.corpus import (
    Corpus,
    DEEP_CHAIN_LEVELS,
    DEFAULT_FAMILIES,
    FAMILIES,
    register_family,
    unregister_family,
)


def test_same_seed_is_byte_identical():
    first = Corpus(size=2, num_vars=6, seed=13)
    second = Corpus(size=2, num_vars=6, seed=13)
    payloads_a = [inst.payload for inst in first.generate()]
    payloads_b = [inst.payload for inst in second.generate()]
    assert payloads_a == payloads_b
    assert first.fingerprint() == second.fingerprint()


def test_different_seeds_differ():
    assert (
        Corpus(size=2, num_vars=6, seed=1).fingerprint()
        != Corpus(size=2, num_vars=6, seed=2).fingerprint()
    )


def test_every_family_produces_requested_size():
    corpus = Corpus(size=3, num_vars=6, seed=5)
    assert corpus.statistics() == {
        family: 3 for family in DEFAULT_FAMILIES
    }


def test_instances_decode_to_valid_refs():
    for instance in Corpus(size=2, num_vars=6, seed=9).generate():
        manager, f, c = instance.decode()
        manager.validate((f, c))
        # The identity is always a Definition 2 cover of itself.
        assert is_def2_cover(manager, f, c, f)


def test_instance_digest_and_label_are_stable():
    first = Corpus(size=1, num_vars=5, seed=3).generate()[0]
    second = Corpus(size=1, num_vars=5, seed=3).generate()[0]
    assert first.digest == second.digest
    assert first.label == second.label


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown corpus families"):
        Corpus(families=("no_such_family",))


def test_register_family_roundtrip():
    def constant_family(config):
        from repro.bdd.manager import Manager
        from repro.bdd.wire import serialize_instance

        manager = Manager(["x0"])
        return [
            serialize_instance(manager, ONE, ZERO)
            for _ in range(config.size)
        ]

    register_family("constant_test", constant_family)
    try:
        with pytest.raises(ValueError, match="already registered"):
            register_family("constant_test", constant_family)
        corpus = Corpus(families=("constant_test",), size=2, seed=0)
        assert len(corpus.generate()) == 2
    finally:
        unregister_family("constant_test")
    assert "constant_test" not in FAMILIES


def test_builtin_families_cannot_be_unregistered():
    with pytest.raises(ValueError, match="built-in"):
        unregister_family("random_dnf")


def test_wrong_size_family_is_an_error():
    def short_family(config):
        return []

    register_family("short_test", short_family)
    try:
        with pytest.raises(RuntimeError, match="produced 0 payloads"):
            Corpus(families=("short_test",), size=2, seed=0).generate()
    finally:
        unregister_family("short_test")


class TestDeepChainFamily:
    def test_registered_but_not_default(self):
        assert "deep_chain" in FAMILIES
        assert "deep_chain" not in DEFAULT_FAMILIES

    def test_same_args_and_seed_are_byte_identical(self):
        def payloads(seed):
            corpus = Corpus(families=("deep_chain",), size=3, seed=seed)
            return [instance.payload for instance in corpus.generate()]

        assert payloads(11) == payloads(11)
        assert payloads(11) != payloads(12)

    def test_chains_are_deeper_than_the_recursion_limit(self):
        limit = sys.getrecursionlimit()
        corpus = Corpus(families=("deep_chain",), size=3, seed=2026)
        for instance in corpus.generate():
            manager, f, c = instance.decode()
            manager.validate((f, c))
            # A chain has one node per support variable, so its depth
            # is its support size.
            assert len(manager.support(f)) == manager.size(f) - 1 > limit
            assert len(manager.support(c)) == manager.size(c) - 1 > limit
            assert manager.support_multi((f, c)) == set(
                range(DEEP_CHAIN_LEVELS)
            )



class TestQuickSuiteFamily:
    def test_registered_but_not_default(self):
        assert "quick_suite" in FAMILIES
        assert "quick_suite" not in DEFAULT_FAMILIES

    def test_unseeded_prefix_of_the_recorded_calls(self):
        from repro.circuits.suite import QUICK_SUITE
        from repro.experiments.calls import collect_suite_calls

        def payloads(size, seed, num_vars):
            corpus = Corpus(
                families=("quick_suite",),
                size=size,
                num_vars=num_vars,
                seed=seed,
            )
            return [instance.payload for instance in corpus.generate()]

        six = payloads(6, seed=1, num_vars=3)
        # --seed and --num-vars are ignored; --size takes a prefix.
        assert payloads(6, seed=99, num_vars=8) == six
        assert payloads(2, seed=1, num_vars=3) == six[:2]
        records = collect_suite_calls(list(QUICK_SUITE))
        first = records[0]
        assert len(first.calls) >= 6
        for payload, call in zip(six, first.calls):
            manager, f, c = deserialize_instance(payload)
            assert manager.size(f) == call.f_size
            assert payload == serialize_instance(
                first.manager, call.f, call.c
            )

    def test_the_whole_quick_suite_is_245_calls(self):
        corpus = Corpus(families=("quick_suite",), size=245)
        assert len(corpus.generate()) == 245
        with pytest.raises(RuntimeError, match="produced 245 payloads"):
            Corpus(families=("quick_suite",), size=246).generate()
