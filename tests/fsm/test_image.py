"""Tests for image computation: relation vs constrain-range methods."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd.manager import Manager, ONE, ZERO
from repro.fsm.machine import FsmSpec, LatchSpec, OutputSpec, compile_fsm
from repro.fsm.image import (
    image_by_constrain_range,
    image_by_relation,
    preimage_by_relation,
    transition_relation,
)
from repro.circuits.generators import counter, lfsr, random_controller
from repro.circuits.suite import benchmark_spec
from repro.fsm.product import compile_product


def two_bit_counter():
    manager = Manager()
    fsm = compile_fsm(manager, counter(2))
    return manager, fsm


class TestRelation:
    def test_relation_is_total_and_deterministic(self):
        manager, fsm = two_bit_counter()
        relation = transition_relation(fsm)
        # Total: for every (state, input) some next state exists.
        some_next = manager.exists(relation, fsm.next_levels)
        assert some_next == ONE
        # Deterministic: exactly one next state per (state, input).
        count = manager.sat_count(relation)
        expected = 1 << (len(fsm.input_levels) + len(fsm.current_levels))
        assert count == expected

    def test_relation_cached(self):
        manager, fsm = two_bit_counter()
        assert transition_relation(fsm) == transition_relation(fsm)


def left_fold_relation(fsm):
    """The relation as a deepest-latch-first left fold (the reference)."""
    manager = fsm.manager
    relation = ONE
    for index in range(fsm.num_latches - 1, -1, -1):
        clause = manager.xnor(fsm.next_var(index), fsm.next_fns[index])
        relation = manager.and_(relation, clause)
    return relation


class TestRelationSchedule:
    @pytest.mark.parametrize("name", ["s386", "s510", "scf"])
    def test_self_product_relation(self, name):
        """Same function as the fold, built near its final size."""
        spec = benchmark_spec(name)
        manager = Manager()
        machine = compile_product(manager, spec, spec).machine
        before = manager.statistics()["nodes_created"]
        relation = transition_relation(machine)
        created = manager.statistics()["nodes_created"] - before
        assert created <= 1.5 * manager.size(relation)
        assert relation == left_fold_relation(machine)


class TestImage:
    def test_counter_steps_from_reset(self):
        manager, fsm = two_bit_counter()
        image = image_by_relation(fsm, fsm.init_cube)
        # From 00 with en in {0,1}: stay at 00 or go to 01.
        q0, q1 = fsm.current_levels
        expected = manager.or_(
            manager.cube_ref({q0: False, q1: False}),
            manager.cube_ref({q0: True, q1: False}),
        )
        assert image == expected

    def test_image_of_empty_is_empty(self):
        manager, fsm = two_bit_counter()
        assert image_by_relation(fsm, ZERO) == ZERO
        assert image_by_constrain_range(fsm, ZERO) == ZERO

    def test_methods_agree_on_counter(self):
        manager, fsm = two_bit_counter()
        states = fsm.init_cube
        for _ in range(4):
            by_relation = image_by_relation(fsm, states)
            by_range = image_by_constrain_range(fsm, states)
            assert by_relation == by_range
            states = manager.or_(states, by_relation)

    @pytest.mark.parametrize("seed", [7, 42, 99])
    def test_methods_agree_on_random_controllers(self, seed):
        manager = Manager()
        fsm = compile_fsm(
            manager, random_controller(seed, state_bits=4, input_bits=3)
        )
        states = fsm.init_cube
        for _ in range(3):
            by_relation = image_by_relation(fsm, states)
            by_range = image_by_constrain_range(fsm, states)
            assert by_relation == by_range
            states = manager.or_(states, by_relation)

    def test_constrain_hook_sees_every_next_function(self):
        manager, fsm = two_bit_counter()
        observed = []

        def hook(mgr, f, c):
            observed.append((f, c))

        image_by_constrain_range(fsm, fsm.init_cube, constrain_hook=hook)
        assert len(observed) == fsm.num_latches
        for f, c in observed:
            assert c == fsm.init_cube

    def test_image_agrees_with_explicit_simulation(self):
        """Symbolic image = set of states reached by explicit stepping."""
        manager = Manager()
        fsm = compile_fsm(manager, lfsr(3))
        image = image_by_relation(fsm, fsm.init_cube)
        # The LFSR has no inputs; from the all-ones reset there is
        # exactly one successor.
        assert manager.sat_count(
            image, manager.num_vars
        ) == (1 << (manager.num_vars - fsm.num_latches))


class TestPreimage:
    def test_preimage_inverts_image_on_deterministic_machine(self):
        manager, fsm = two_bit_counter()
        image = image_by_relation(fsm, fsm.init_cube)
        back = preimage_by_relation(fsm, image)
        assert manager.leq(fsm.init_cube, back)

    def test_preimage_of_unreachable(self):
        manager = Manager()
        fsm = compile_fsm(manager, lfsr(3))
        # All-zeros is a fixed point basin nothing maps into except 0
        # itself (taps XOR); preimage of the zero state is {0}.
        q_levels = fsm.current_levels
        zero_state = manager.cube_ref({level: False for level in q_levels})
        back = preimage_by_relation(fsm, zero_state)
        assert back == zero_state
