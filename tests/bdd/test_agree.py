"""Node-free ``agree``/``leq`` against the node-building formulas.

``Manager.agree(f, g, c, d)`` decides ``(f ⊕ g)·c·d = 0`` and
``Manager.leq(f, g)`` decides ``f ≤ g`` without creating a node.  The
formulas they replaced build the disagreement as a BDD and compare it
with ZERO; they stay here as the reference for verdicts.  The walk as
it first shipped, ``tests.core.textbook.AgreeWalk``, is the reference
for the work: the states expanded, their order, the events fired and
the memo written.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.errors import StepBudgetExceeded
from repro.bdd.manager import EVENT_ITE, Manager, ONE, ZERO
from repro.bdd.truthtable import bdd_from_leaves

from tests.core.textbook import AgreeWalk

NUM_VARS = 4


def reference_agree(manager, f, g, c, d=ONE):
    """``(f ⊕ g)·c·d == ZERO``, built as a BDD."""
    disagreement = manager.and_(manager.xor(f, g), manager.and_(c, d))
    return disagreement == ZERO


def reference_leq(manager, f, g):
    """``f·¬g == ZERO``, built as a BDD."""
    return manager.and_(f, g ^ 1) == ZERO


TABLE = st.lists(
    st.booleans(), min_size=1 << NUM_VARS, max_size=1 << NUM_VARS
)

#: How the four operands are tied together.
TIES = (
    "free",
    "f_is_not_g",
    "f_is_g",
    "c_is_not_d",
    "c_is_d",
    "d_is_one",
    "g_is_c",
)


@st.composite
def quadruples(draw):
    """Four operand specs over a shared pool of one to three tables.

    An operand is a constant or a pool index, each with a complement
    bit, so constants, complemented edges and repeated functions all
    occur; ``tie`` forces the relations the walk special-cases.
    """
    pool = draw(st.lists(TABLE, min_size=1, max_size=3))
    operand = st.tuples(
        st.one_of(
            st.sampled_from(["one", "zero"]),
            st.integers(0, len(pool) - 1),
        ),
        st.integers(0, 1),
    )
    specs = [draw(operand) for _ in range(4)]
    return pool, specs, draw(st.sampled_from(TIES))


def _build(manager, pool, spec):
    which, complement = spec
    if which == "one":
        ref = ONE
    elif which == "zero":
        ref = ZERO
    else:
        ref = bdd_from_leaves(manager, pool[which])
    return ref ^ complement


def _operands(draw_result):
    pool, specs, tie = draw_result
    manager = Manager()
    manager.ensure_vars(NUM_VARS)
    f, g, c, d = (_build(manager, pool, spec) for spec in specs)
    if tie == "f_is_not_g":
        g = f ^ 1
    elif tie == "f_is_g":
        g = f
    elif tie == "c_is_not_d":
        d = c ^ 1
    elif tie == "c_is_d":
        d = c
    elif tie == "d_is_one":
        d = ONE
    elif tie == "g_is_c":
        g = c
    return manager, f, g, c, d


class TestAgainstFormulas:
    @settings(max_examples=300, deadline=None)
    @given(quadruples())
    def test_agree_matches_the_formula(self, drawn):
        manager, f, g, c, d = _operands(drawn)
        want = reference_agree(manager, f, g, c, d)
        created = manager.statistics()["nodes_created"]
        # Every symmetric spelling, on a memo that the earlier calls
        # have warmed: the verdict may not depend on either.
        spellings = [
            (f, g, c, d),
            (g, f, d, c),
            (f ^ 1, g ^ 1, c, d),
            (g, f, c, d),
        ]
        for args in spellings:
            assert manager.agree(*args) is want
        if d == ONE:
            assert manager.agree(f, g, c) is want
        assert manager.statistics()["nodes_created"] == created

    @settings(max_examples=300, deadline=None)
    @given(quadruples())
    def test_leq_matches_the_formula(self, drawn):
        manager, f, g, c, _ = _operands(drawn)
        pairs = [(f, g), (g, f), (f, c), (c, f ^ 1), (f, f), (f, ONE)]
        wants = [reference_leq(manager, x, y) for x, y in pairs]
        created = manager.statistics()["nodes_created"]
        assert [manager.leq(x, y) for x, y in pairs] == wants
        assert manager.statistics()["nodes_created"] == created

    def test_constants(self):
        manager = Manager()
        assert manager.agree(ONE, ZERO, ZERO)
        assert not manager.agree(ONE, ZERO, ONE)
        assert manager.agree(ONE, ONE, ONE)
        assert manager.leq(ZERO, ONE)
        assert not manager.leq(ONE, ZERO)
        assert manager.statistics()["agree_steps"] == 0


def _hidden_difference(manager, num_vars=10, seed=3):
    """``(f, g, care, bad)``: f and g agree exactly on ``care`` but share
    little structure, so proving it walks many states; ``bad`` is g
    flipped on the all-ones minterm, which ``care`` contains."""
    rng = random.Random(seed)

    def table():
        leaves = [rng.random() < 0.5 for _ in range(1 << num_vars)]
        return bdd_from_leaves(manager, leaves)

    all_ones = manager.cube_ref(dict.fromkeys(range(num_vars), True))
    f = table()
    care = manager.or_(table(), all_ones)
    g = manager.xor(f, manager.and_(care ^ 1, table()))
    return f, g, care, manager.xor(g, all_ones)


class TestWalk:
    def test_stops_at_the_first_disagreement(self):
        manager = Manager()
        manager.ensure_vars(10)
        f, g, care, bad = _hidden_difference(manager)
        assert manager.agree(f, g, care)
        full = manager.statistics()["agree_steps"]
        manager.clear_caches()
        assert not manager.agree(f, bad, care)
        early = manager.statistics()["agree_steps"] - full
        # Proving agreement expands every care state; the one
        # disagreeing minterm sits on the then-first path, one state
        # per level.
        assert early <= 10
        assert full > 100

    def test_steps_fire_the_hook(self):
        manager = Manager()
        manager.ensure_vars(10)
        f, g, care, _ = _hidden_difference(manager)
        events = []
        manager.install_step_hook(events.append)
        try:
            assert manager.agree(f, g, care)
        finally:
            manager.install_step_hook(None)
        steps = manager.statistics()["agree_steps"]
        assert steps > 0
        assert events == [EVENT_ITE] * steps

    def test_memo_is_a_named_cache_flushed_by_gc(self):
        manager = Manager()
        manager.ensure_vars(10)
        f, g, care, _ = _hidden_difference(manager)
        assert manager.agree(f, g, care)
        assert manager.statistics()["cache_agree"] > 0
        steps = manager.statistics()["agree_steps"]
        # A warm memo answers without expanding anything.
        assert manager.agree(f, g, care)
        assert manager.statistics()["agree_steps"] == steps
        manager.gc((f, g, care))
        assert manager.statistics()["cache_agree"] == 0

    @pytest.mark.parametrize("abort_after", [1, 5, 20])
    def test_aborted_walk_leaves_no_memo_entries(self, abort_after):
        manager = Manager()
        manager.ensure_vars(10)
        f, g, care, _ = _hidden_difference(manager)
        seen = []

        def hook(event):
            seen.append(event)
            if len(seen) >= abort_after:
                raise StepBudgetExceeded("planted abort")

        manager.install_step_hook(hook)
        try:
            with pytest.raises(StepBudgetExceeded):
                manager.agree(f, g, care)
        finally:
            manager.install_step_hook(None)
        assert len(manager.cache("agree")) == 0
        # Steps burned before the abort are still counted.
        assert manager.statistics()["agree_steps"] == abort_after
        assert manager.agree(f, g, care)
        assert len(manager.cache("agree")) > 0

    def test_never_reads_the_ite_table(self):
        from repro.robust.faults import FAULT_CACHE, FaultPlan, FaultyManager

        manager = FaultyManager(
            plan=FaultPlan(kind=FAULT_CACHE, at_operation=1, repeat=True),
            armed=False,
        )
        manager.ensure_vars(10)
        f, g, care, bad = _hidden_difference(manager)
        manager.armed = True
        # Every agree step now flips every cached ITE result; agree's
        # verdicts must not notice.
        assert manager.agree(f, g, care)
        assert not manager.agree(f, bad, care)
        assert manager.faults_fired > 0


#: Variables of the reference differential: deep enough for walks of
#: tens of states that meet the memo and repeat states.
WALK_VARS = 5

WALK_TABLE = st.lists(
    st.booleans(), min_size=1 << WALK_VARS, max_size=1 << WALK_VARS
)

#: How a query calls the kernel.
KINDS = ("agree3", "agree4", "leq")


@st.composite
def query_sequences(draw):
    """A pool of tables and a sequence of queries over it.

    A query is four operand specs (see :func:`quadruples`), a tie, the
    kind of call and the step at which an aborting hook raises.
    """
    pool = draw(st.lists(WALK_TABLE, min_size=1, max_size=4))
    # Two derived functions share structure with the pool.
    choices = len(pool) + 2
    operand = st.tuples(
        st.one_of(
            st.sampled_from(["one", "zero"]), st.integers(0, choices - 1)
        ),
        st.integers(0, 1),
    )
    query = st.tuples(
        st.lists(operand, min_size=4, max_size=4),
        st.sampled_from(TIES),
        st.sampled_from(KINDS),
        st.integers(1, 24),
    )
    return pool, draw(st.lists(query, min_size=1, max_size=16))


def _walk_manager(pool):
    manager = Manager()
    manager.ensure_vars(WALK_VARS)
    refs = [bdd_from_leaves(manager, table) for table in pool]
    refs.append(manager.and_(refs[0], refs[-1]))
    refs.append(manager.xor(refs[0], refs[-1] ^ 1))
    return manager, refs


def _query(manager, refs, specs, tie, kind):
    f, g, c, d = (
        ONE if which == "one"
        else ZERO if which == "zero"
        else refs[which] ^ complement
        for which, complement in specs
    )
    if tie == "f_is_not_g":
        g = f ^ 1
    elif tie == "f_is_g":
        g = f
    elif tie == "c_is_not_d":
        d = c ^ 1
    elif tie == "c_is_d":
        d = c
    elif tie == "d_is_one":
        d = ONE
    elif tie == "g_is_c":
        g = c
    if kind == "leq":
        return manager.leq(f, c)
    if kind == "agree3":
        return manager.agree(f, g, c)
    return manager.agree(f, g, c, d)


class TestAgainstTheReferenceWalk:
    """After every query both walks have done the same work."""

    @pytest.mark.parametrize("aborting", [False, True])
    @settings(max_examples=150, deadline=None)
    @given(drawn=query_sequences())
    def test_same_states_events_and_memo(self, aborting, drawn):
        pool, queries = drawn
        shipped, shipped_refs = _walk_manager(pool)
        reference, reference_refs = _walk_manager(pool)
        walk = AgreeWalk(reference)
        reference.agree = walk
        for specs, tie, kind, abort_at in queries:
            outcomes = []
            for manager, refs in (
                (shipped, shipped_refs),
                (reference, reference_refs),
            ):
                events = []

                def hook(event, events=events):
                    events.append(event)
                    if aborting and len(events) == abort_at:
                        raise StepBudgetExceeded("planted abort")

                previous = manager.install_step_hook(hook)
                try:
                    verdict = _query(manager, refs, specs, tie, kind)
                except StepBudgetExceeded:
                    verdict = "aborted"
                finally:
                    manager.install_step_hook(previous)
                outcomes.append(
                    (verdict, events, dict(manager.cache("agree")))
                )
            assert outcomes[0] == outcomes[1]
            assert shipped.statistics()["agree_steps"] == walk.steps
        assert reference.statistics()["agree_steps"] == 0


class TestOnRecordedCalls:
    def test_paper_heuristics_expand_the_reference_states(self):
        """Every paper heuristic's ``agree_steps`` on s386's calls is
        the reference walk's count, with caches flushed per call."""
        from repro.core.registry import HEURISTICS, PAPER_HEURISTICS
        from repro.experiments.calls import collect_benchmark_calls

        def steps_per_heuristic(install):
            record = collect_benchmark_calls("s386")
            manager = record.manager
            walk = AgreeWalk(manager)
            if install:
                manager.agree = walk
            counts = {}
            for name in PAPER_HEURISTICS:
                before = manager.statistics()["agree_steps"] + walk.steps
                for call in record.calls:
                    manager.clear_caches()
                    HEURISTICS[name](manager, call.f, call.c)
                counts[name] = (
                    manager.statistics()["agree_steps"] + walk.steps - before
                )
            return counts

        shipped = steps_per_heuristic(install=False)
        assert shipped == steps_per_heuristic(install=True)
        assert shipped["opt_lv"] > 0
        assert shipped["osm_bt"] > 0
        assert shipped["tsm_td"] > 0
