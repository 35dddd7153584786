"""Seeded ``[f, c]`` instance corpora for differential verification.

The generator contract follows the pisek rule: generators must be
deterministic, and when a generator takes a seed the same arguments plus
the same seed must reproduce the *byte-identical* instance.  Instances
are therefore materialized as canonical wire payloads
(:func:`repro.bdd.wire.serialize_instance`), whose byte equality implies
semantic equality — a corpus fingerprint is a digest over payload bytes.

Four families ship by default, registered behind one :class:`Corpus`
API:

``random_dnf``
    Random sums of 3-literal products for both ``f`` and ``c`` — the
    same texture the chaos load generator replays (its payload builder
    lives here now, see :func:`random_dnf_ref`).
``random_dag``
    Random ITE compositions over the variable set, producing deeper
    shared-subgraph DAG structure than DNF sampling reaches.
``circuit_cone``
    Genuine constrain-call cones recorded from a product-machine
    self-equivalence traversal of a pseudo-random decoded controller
    (:func:`repro.circuits.generators.random_controller`).
``fsm_reach``
    Frontier-minimization instances ``[U, U + ¬R]`` and next-state
    don't-care instances ``[δᵢ, R]`` harvested from FSM reachability,
    where ``R`` is the reached set — the paper's motivating workload.

New families register via :func:`register_family`; each generator maps a
:class:`CorpusConfig` to exactly ``config.size`` payloads.  Two more
ship registered but outside :data:`DEFAULT_FAMILIES`, so the default
corpus (and its pinned fingerprints) does not move:

``deep_chain``
    Long single-successor chains over :data:`DEEP_CHAIN_LEVELS` levels,
    deeper than the default interpreter recursion limit — guards that
    every heuristic and oracle is limited by heap, not by recursion
    depth.
``quick_suite``
    The paper's own workload: the ``[f, c]`` calls that the §4 sweep
    records from the quick suite's self-equivalence traversals
    (:data:`repro.circuits.suite.QUICK_SUITE`, 245 calls), in recording
    order.  It is an unseeded generator: ``--seed`` and ``--num-vars``
    are ignored and ``--size`` takes the first calls.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bdd.manager import Manager, ONE, ZERO
from repro.bdd.wire import deserialize_instance, serialize_instance

#: Family generator: config -> exactly ``config.size`` wire payloads.
FamilyGenerator = Callable[["CorpusConfig"], List[bytes]]

DEFAULT_FAMILIES: Tuple[str, ...] = (
    "random_dnf",
    "random_dag",
    "circuit_cone",
    "fsm_reach",
)


@dataclass(frozen=True)
class Instance:
    """One corpus member: a wire-encoded ``[f, c]`` instance."""

    family: str
    index: int
    seed: int
    payload: bytes

    def decode(self) -> Tuple[Manager, int, int]:
        """Materialize ``(manager, f, c)`` in a fresh scratch manager."""
        return deserialize_instance(self.payload)

    @property
    def digest(self) -> str:
        """Hex digest identifying the instance (stable across runs)."""
        return hashlib.sha256(self.payload).hexdigest()[:16]

    @property
    def label(self) -> str:
        return "%s[%d]#%s" % (self.family, self.index, self.digest[:8])


@dataclass(frozen=True)
class CorpusConfig:
    """Arguments of one family generation run (pisek: args + seed)."""

    family: str
    size: int
    num_vars: int
    seed: int


def family_seed(seed: int, family: str) -> int:
    """Child seed for one family, independent of Python hash seeding."""
    digest = hashlib.sha256(
        ("corpus:%d:%s" % (seed, family)).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


# ----------------------------------------------------------------------
# Shared builders
# ----------------------------------------------------------------------
def random_dnf_ref(
    manager: Manager,
    levels: Sequence[int],
    rng: random.Random,
    cubes: int,
    literals_per_cube: int = 3,
) -> int:
    """A random sum of products over ``levels``, driven by ``rng``.

    This is the chaos load generator's payload builder, hoisted here so
    the corpus and the load harness sample from the same distribution.
    The rng call sequence is part of the deterministic contract — do not
    reorder the draws.
    """
    result = None
    for _ in range(cubes):
        chosen = rng.sample(
            list(levels), k=min(literals_per_cube, len(levels))
        )
        cube = None
        for literal in chosen:
            literal = literal if rng.random() < 0.5 else literal ^ 1
            cube = literal if cube is None else manager.and_(cube, literal)
        result = cube if result is None else manager.or_(result, cube)
    return ZERO if result is None else result


def _fresh_manager(num_vars: int) -> Tuple[Manager, List[int]]:
    manager = Manager(["x%d" % index for index in range(num_vars)])
    levels = [manager.var(level) for level in range(num_vars)]
    return manager, levels


# ----------------------------------------------------------------------
# Family generators
# ----------------------------------------------------------------------
def _gen_random_dnf(config: CorpusConfig) -> List[bytes]:
    rng = random.Random(family_seed(config.seed, config.family))
    payloads: List[bytes] = []
    for _ in range(config.size):
        manager, levels = _fresh_manager(config.num_vars)
        f = random_dnf_ref(manager, levels, rng, config.num_vars)
        c = random_dnf_ref(manager, levels, rng, config.num_vars)
        payloads.append(serialize_instance(manager, f, c))
    return payloads


def _gen_random_dag(config: CorpusConfig) -> List[bytes]:
    """Random ITE compositions: a pool of subfunctions combined pairwise."""
    rng = random.Random(family_seed(config.seed, config.family))
    payloads: List[bytes] = []
    for _ in range(config.size):
        manager, levels = _fresh_manager(config.num_vars)
        pool = [
            level if rng.random() < 0.5 else level ^ 1 for level in levels
        ]
        for _ in range(max(4, 2 * config.num_vars)):
            sel = rng.choice(pool)
            then_b = rng.choice(pool)
            else_b = rng.choice(pool)
            node = manager.ite(sel, then_b, else_b)
            pool.append(node if rng.random() < 0.8 else node ^ 1)
        f = pool[-1]
        c = manager.or_(pool[-2], pool[-3] ^ 1)
        payloads.append(serialize_instance(manager, f, c))
    return payloads


def _controller_dims(num_vars: int) -> Tuple[int, int]:
    """Split the variable budget into (state_bits, input_bits)."""
    state_bits = max(2, min(4, num_vars // 2))
    input_bits = max(1, min(3, num_vars - state_bits))
    return state_bits, input_bits


def _gen_circuit_cone(config: CorpusConfig) -> List[bytes]:
    """Constrain-call cones recorded from self-equivalence traversals."""
    from repro.circuits.generators import random_controller
    from repro.experiments.calls import collect_benchmark_calls

    base = family_seed(config.seed, config.family)
    state_bits, input_bits = _controller_dims(config.num_vars)
    payloads: List[bytes] = []
    round_index = 0
    while len(payloads) < config.size:
        spec = random_controller(
            seed=(base + round_index) % (1 << 30),
            state_bits=state_bits,
            input_bits=input_bits,
        )
        record = collect_benchmark_calls(
            spec.name, spec=spec, max_iterations=8
        )
        for call in record.calls:
            payloads.append(
                serialize_instance(record.manager, call.f, call.c)
            )
            if len(payloads) == config.size:
                break
        round_index += 1
        if round_index > 8 * config.size:  # pragma: no cover - safety net
            raise RuntimeError("circuit_cone generator failed to converge")
    return payloads


def _gen_fsm_reach(config: CorpusConfig) -> List[bytes]:
    """Reachability don't-care instances from pseudo-random controllers."""
    from repro.circuits.generators import random_controller
    from repro.core.sibling import constrain
    from repro.fsm.machine import compile_fsm
    from repro.fsm.reachability import reachable_states

    base = family_seed(config.seed, config.family)
    state_bits, input_bits = _controller_dims(config.num_vars)
    payloads: List[bytes] = []
    round_index = 0
    while len(payloads) < config.size:
        spec = random_controller(
            seed=(base + round_index) % (1 << 30),
            state_bits=state_bits,
            input_bits=input_bits,
        )
        manager = Manager()
        fsm = compile_fsm(manager, spec)
        recorded: List[Tuple[int, int]] = []

        def observe(mgr: Manager, f: int, c: int) -> int:
            recorded.append((f, c))
            return constrain(mgr, f, c)

        result = reachable_states(fsm, minimize=observe, max_iterations=16)
        # Frontier instances [U, U + ¬R] first, then the next-state
        # don't-care instances [δᵢ, R] the optimizer consumes.
        for f, c in recorded:
            payloads.append(serialize_instance(manager, f, c))
            if len(payloads) == config.size:
                return payloads
        for next_fn in fsm.next_fns:
            payloads.append(
                serialize_instance(manager, next_fn, result.reached)
            )
            if len(payloads) == config.size:
                return payloads
        round_index += 1
        if round_index > 8 * config.size:  # pragma: no cover - safety net
            raise RuntimeError("fsm_reach generator failed to converge")
    return payloads


#: Levels of every ``deep_chain`` instance: ``f`` alone, ``c`` alone
#: and the ``(f, c)`` pair walk are each deeper than the default
#: interpreter recursion limit of 1000.
DEEP_CHAIN_LEVELS = 2400


def _literal_chain(
    manager: Manager,
    levels: Sequence[int],
    conjunction: bool,
    rng: random.Random,
) -> int:
    """AND (or OR) of one random-polarity literal per level, built
    bottom-up with ``make_node``: one node per level."""
    absorbing = ZERO if conjunction else ONE
    chain = absorbing ^ 1
    for level in sorted(levels, reverse=True):
        # A positive literal: AND continues the chain on its then-edge,
        # OR on its else-edge; the other edge is the absorbing constant.
        high, low = (chain, absorbing) if conjunction else (absorbing, chain)
        if rng.random() < 0.5:
            high, low = low, high
        chain = manager.make_node(level, high, low)
    return chain


def _gen_deep_chain(config: CorpusConfig) -> List[bytes]:
    """Chains deeper than the recursion limit (``config.num_vars`` is
    ignored: depth is the point).

    ``f`` is an AND or OR chain over about half of the levels and ``c``
    one over the rest, with random literal polarities; the levels are
    dealt alternately or at random.  ``f`` = AND of the even levels,
    ``c`` = OR of the odd ones is a member: the shape of long
    single-successor chains that chain reduction targets.
    """
    rng = random.Random(family_seed(config.seed, config.family))
    payloads: List[bytes] = []
    for _ in range(config.size):
        manager = Manager()
        manager.ensure_vars(DEEP_CHAIN_LEVELS)
        levels = range(DEEP_CHAIN_LEVELS)
        if rng.random() < 0.5:
            first = rng.randrange(2)
            in_f = [level % 2 == first for level in levels]
        else:
            in_f = [rng.random() < 0.5 for _ in levels]
        f_levels = [level for level in levels if in_f[level]]
        c_levels = [level for level in levels if not in_f[level]]
        f = _literal_chain(manager, f_levels, rng.random() < 0.5, rng)
        c = _literal_chain(manager, c_levels, rng.random() < 0.5, rng)
        payloads.append(serialize_instance(manager, f, c))
    return payloads


def _gen_quick_suite(config: CorpusConfig) -> List[bytes]:
    """The quick suite's recorded sweep calls, in recording order
    (``config.seed`` and ``config.num_vars`` are ignored)."""
    from repro.circuits.suite import QUICK_SUITE
    from repro.experiments.calls import collect_suite_calls

    payloads: List[bytes] = []
    for record in collect_suite_calls(list(QUICK_SUITE)):
        for call in record.calls:
            if len(payloads) == config.size:
                return payloads
            payloads.append(
                serialize_instance(record.manager, call.f, call.c)
            )
    return payloads


FAMILIES: Dict[str, FamilyGenerator] = {
    "random_dnf": _gen_random_dnf,
    "random_dag": _gen_random_dag,
    "circuit_cone": _gen_circuit_cone,
    "fsm_reach": _gen_fsm_reach,
}


def register_family(
    name: str, generator: FamilyGenerator, replace: bool = False
) -> None:
    """Register a corpus family; refuses silent overwrites."""
    if name in FAMILIES and not replace:
        raise ValueError("corpus family %r already registered" % name)
    FAMILIES[name] = generator


register_family("deep_chain", _gen_deep_chain)
register_family("quick_suite", _gen_quick_suite)


def unregister_family(name: str) -> None:
    if name in DEFAULT_FAMILIES:
        raise ValueError("cannot unregister built-in family %r" % name)
    FAMILIES.pop(name, None)


# ----------------------------------------------------------------------
# The Corpus API
# ----------------------------------------------------------------------
@dataclass
class Corpus:
    """A deterministic corpus: families × size instances at ``seed``.

    Same constructor arguments → byte-identical instances, independent
    of process, platform hash seeding, or generation order.
    """

    families: Tuple[str, ...] = DEFAULT_FAMILIES
    size: int = 8
    num_vars: int = 8
    seed: int = 0
    _instances: Optional[List[Instance]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.families = tuple(self.families)
        unknown = [name for name in self.families if name not in FAMILIES]
        if unknown:
            raise ValueError(
                "unknown corpus families %r (registered: %s)"
                % (unknown, ", ".join(sorted(FAMILIES)))
            )

    def generate(self) -> List[Instance]:
        """All instances, generated once and cached on the object."""
        if self._instances is None:
            instances: List[Instance] = []
            for family in self.families:
                config = CorpusConfig(
                    family=family,
                    size=self.size,
                    num_vars=self.num_vars,
                    seed=self.seed,
                )
                payloads = FAMILIES[family](config)
                if len(payloads) != self.size:
                    raise RuntimeError(
                        "family %r produced %d payloads, expected %d"
                        % (family, len(payloads), self.size)
                    )
                instances.extend(
                    Instance(family, index, self.seed, payload)
                    for index, payload in enumerate(payloads)
                )
            self._instances = instances
        return list(self._instances)

    def fingerprint(self) -> str:
        """sha256 over every payload, in generation order."""
        digest = hashlib.sha256()
        for instance in self.generate():
            digest.update(instance.family.encode("utf-8"))
            digest.update(len(instance.payload).to_bytes(8, "big"))
            digest.update(instance.payload)
        return digest.hexdigest()

    def statistics(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for instance in self.generate():
            counts[instance.family] = counts.get(instance.family, 0) + 1
        return counts
