"""Runtime RefSanitizer: tag refs with ``(manager_id, gc_generation)``.

The static flow rules F1/F2 (:mod:`repro.analysis.flow`) prove at lint
time that no ref crosses managers or outlives a compacting gc — within
the patterns the analyzer can see.  :class:`SanitizedManager` enforces
the same two invariants *dynamically*: every ref a sanitized manager
hands out is a :class:`SanitizedRef`, an ``int`` subclass carrying the
minting manager's identity and the compaction epoch it was minted
under.  Every ref a sanitized manager receives is checked, and a typed
:class:`~repro.analysis.errors.SanitizerError` is raised the moment a
ref is

* presented to a **different manager** than the one that minted it, or
* presented **after a** ``gc(compact=True)`` without having been
  translated through that collection's
  :class:`~repro.bdd.manager.Remap`.

Untagged plain ints (the constants ``ONE``/``ZERO``, refs produced by
un-sanitized code) are accepted unchecked — the sanitizer is
best-effort by design, catching every misuse of refs that flowed
through the public API without forcing the whole world to be tagged.

Because :class:`SanitizedRef` *is* an ``int`` (same hash, equality and
arithmetic), tagged refs pass through caches, serializers and
arithmetic untouched; derived expressions like ``ref ^ 1`` produce
plain ints and simply lose the tag.

Environment control
-------------------

``REPRO_SANITIZE=1`` opts a whole process in:
:func:`install_sanitized_manager` (called by the test-suite's
``conftest``) rebinds ``Manager`` so every manager constructed
afterwards sanitizes.  With the variable unset nothing in this module
is even imported by the library — the off-path overhead is exactly
zero.  When both ``REPRO_CHECK=1`` and ``REPRO_SANITIZE=1`` are
requested, the sanitizer wins the ``Manager`` binding (the structural
audits are the slower, stricter mode and have their own CI lane).
"""

from __future__ import annotations

import functools
import itertools
import os
from collections.abc import Iterator
from typing import Iterable, Optional, Tuple

from repro.analysis.errors import SanitizerError
from repro.bdd.manager import Manager, Remap

#: Environment variable switching the sanitizer on.
ENV_VAR = "REPRO_SANITIZE"


def sanitizing_enabled() -> bool:
    """True iff ``REPRO_SANITIZE=1``: ref sanitizing is requested."""
    return os.environ.get(ENV_VAR) == "1"


class SanitizedRef(int):
    """A BDD ref tagged with its minting manager and compaction epoch.

    Behaves exactly like the underlying ``int`` (hashing, equality,
    arithmetic), so it flows through caches and data structures
    unchanged; only a :class:`SanitizedManager` inspects the tag.
    (No ``__slots__``: CPython forbids nonempty slots on subclasses of
    variable-length types like ``int``.)
    """

    def __new__(cls, value: int, manager_id: int, generation: int):
        self = super().__new__(cls, value)
        self.manager_id = manager_id
        self.generation = generation
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SanitizedRef(%d, manager_id=%d, generation=%d)" % (
            int(self),
            self.manager_id,
            self.generation,
        )


class _SanitizedRemap:
    """A Remap that understands tags.

    Accepts refs minted under the generation the compaction retired
    (the one legitimate use of a stale ref) and stamps its outputs with
    the new generation.  Refs already carrying the *new* generation are
    rejected: translating a ref twice is as wrong as not translating it
    at all.
    """

    __slots__ = ("_remap", "_manager", "_old_generation")

    def __init__(self, remap: Remap, manager: "SanitizedManager", old_generation: int):
        self._remap = remap
        self._manager = manager
        self._old_generation = old_generation

    def __call__(self, ref: int) -> int:
        if type(ref) is SanitizedRef:
            manager = self._manager
            if ref.manager_id != manager._manager_id:
                raise SanitizerError(
                    "remap of manager %d applied to a ref minted by "
                    "manager %d" % (manager._manager_id, ref.manager_id)
                )
            if ref.generation != self._old_generation:
                raise SanitizerError(
                    "remap for gc generation %d -> %d applied to a ref "
                    "minted under generation %d (double translation?)"
                    % (
                        self._old_generation,
                        self._old_generation + 1,
                        ref.generation,
                    )
                )
        return self._manager._tag(self._remap(int(ref)))

    def __contains__(self, ref: int) -> bool:
        return int(ref) in self._remap

    def __len__(self) -> int:
        return len(self._remap)


class SanitizedManager(Manager):
    """Manager whose public API tags and validates every ref.

    Construction parameters are those of
    :class:`~repro.bdd.manager.Manager`.  Each instance draws a fresh
    process-wide ``manager_id``; results of ref-producing operations
    come back as :class:`SanitizedRef` stamped with that id and the
    current :attr:`~repro.bdd.manager.Manager.gc_generation`, and every
    tagged argument is checked against both before the underlying
    operation runs.
    """

    _ids = itertools.count(1)

    def __init__(self, *args, **kwargs):
        # The id must exist before super().__init__: variable creation
        # already routes through the wrapped new_var.
        self._manager_id = next(SanitizedManager._ids)
        self._sanitizer_checks = 0
        self._sanitizer_errors = 0
        # Reentrancy guard: checks and tagging apply only at the public
        # API boundary.  Kernel-internal calls (ite -> make_node, ...)
        # see the flag set and run untouched, so the per-step cost of
        # sanitizing stays out of the hot loops.
        self._in_api_call = False
        super().__init__(*args, **kwargs)

    @property
    def manager_id(self) -> int:
        """This manager's process-unique sanitizer identity."""
        return self._manager_id

    @property
    def sanitizer_checks(self) -> int:
        """Number of tagged refs validated so far."""
        return self._sanitizer_checks

    # -- core check/tag machinery --------------------------------------
    def _check_tagged(self, ref: SanitizedRef) -> int:
        self._sanitizer_checks += 1
        if ref.manager_id != self._manager_id:
            self._sanitizer_errors += 1
            raise SanitizerError(
                "ref %d minted by manager %d used with manager %d; refs "
                "index one manager's node table and must be rebuilt "
                "(e.g. via repro.bdd.wire) to cross managers"
                % (int(ref), ref.manager_id, self._manager_id)
            )
        if ref.generation != self._gc_generation:
            self._sanitizer_errors += 1
            raise SanitizerError(
                "ref %d was minted under gc generation %d but the "
                "manager is at generation %d; a gc(compact=True) "
                "invalidated it — apply the Remap that collection "
                "returned" % (int(ref), ref.generation, self._gc_generation)
            )
        return int(ref)

    def _check_arg(self, value):
        kind = type(value)
        if kind is SanitizedRef:
            return self._check_tagged(value)
        if kind is int:
            return value
        if kind is tuple or kind is list:
            return kind(self._check_arg(item) for item in value)
        if kind is dict:
            return {
                key: self._check_arg(item) for key, item in value.items()
            }
        if kind is set or kind is frozenset:
            return kind(self._check_arg(item) for item in value)
        if isinstance(value, Iterator):
            # A generator or other one-shot iterator can only be read
            # once: materialize it so its refs are checked and the
            # wrapped method still receives every item.
            return tuple(self._check_arg(item) for item in value)
        return value

    def _tag(self, ref: int) -> int:
        if ref < 2:
            # ONE/ZERO: terminal refs are manager-independent constants
            # (every legitimate cross-manager idiom, e.g. reorder
            # transfer, passes them around freely) and the terminal
            # node never moves during compaction — leave them untagged.
            return ref
        return SanitizedRef(ref, self._manager_id, self._gc_generation)

    # -- gc ------------------------------------------------------------
    def gc(
        self, roots: Iterable[int] = (), compact: bool = False
    ) -> Optional[Remap]:
        """Collect; compacting, return a tag-aware Remap.

        The returned remap accepts the refs the compaction just retired
        and re-tags its outputs with the new generation — it is the
        only object that will accept a stale ref without raising.
        """
        root_refs = tuple(self._check_arg(ref) for ref in roots)
        old_generation = self._gc_generation
        remap = super().gc(root_refs, compact=compact)
        if remap is None:
            return None
        return _SanitizedRemap(remap, self, old_generation)


#: Operations whose (checked) result is a ref: results come back tagged.
PRODUCING_METHODS: Tuple[str, ...] = (
    "new_var",
    "var",
    "make_node",
    "ite",
    "not_",
    "and_",
    "or_",
    "xor",
    "xnor",
    "implies",
    "diff",
    "and_many",
    "or_many",
    "cofactor",
    "restrict_cube",
    "exists",
    "forall",
    "and_exists",
    "compose",
    "vector_compose",
    "rename",
    "cube_ref",
    "regular",
    "protect",
)

#: Operations that consume refs but return non-ref values.
CONSUMING_METHODS: Tuple[str, ...] = (
    "level",
    "is_constant",
    "leq",
    "agree",
    "size",
    "size_multi",
    "sat_count",
    "eval",
    "support",
    "support_multi",
    "nodes_reachable",
    "nodes_below",
    "level_profile",
    "pick_cube",
    "cubes",
    "is_cube",
    "minterms",
    "unprotect",
    "validate",
)

#: Operations returning tuples with refs at the given positions.
TUPLE_PRODUCING_METHODS = {
    "branches": (0, 1),
    "top_branches": (1, 2),
}


def _sanitized(name: str, tag_result: bool, ref_positions=None):
    original = getattr(Manager, name)

    @functools.wraps(original)
    def wrapper(self: SanitizedManager, *args, **kwargs):
        if self._in_api_call:
            # Nested call from inside another sanitized entry point:
            # the outer call already validated the inputs and will tag
            # the final result, so run the raw kernel.
            return original(self, *args, **kwargs)
        if args:
            args = tuple(self._check_arg(value) for value in args)
        if kwargs:
            kwargs = {
                key: self._check_arg(value)
                for key, value in kwargs.items()
            }
        self._in_api_call = True
        try:
            result = original(self, *args, **kwargs)
        finally:
            self._in_api_call = False
        if tag_result:
            return self._tag(result)
        if ref_positions is not None:
            return tuple(
                self._tag(value) if position in ref_positions else value
                for position, value in enumerate(result)
            )
        return result

    wrapper.__doc__ = (original.__doc__ or "") + (
        "\n\nSanitized: tagged args are validated (see SanitizedManager)."
    )
    return wrapper


for _name in PRODUCING_METHODS:
    setattr(SanitizedManager, _name, _sanitized(_name, tag_result=True))
for _name in CONSUMING_METHODS:
    setattr(SanitizedManager, _name, _sanitized(_name, tag_result=False))
for _name, _positions in TUPLE_PRODUCING_METHODS.items():
    setattr(
        SanitizedManager,
        _name,
        _sanitized(_name, tag_result=False, ref_positions=_positions),
    )
del _name, _positions


def install_sanitized_manager() -> None:
    """Globally substitute :class:`SanitizedManager` for :class:`Manager`.

    Rebinds the ``Manager`` name in :mod:`repro.bdd.manager`,
    :mod:`repro.bdd` and :mod:`repro` so code importing it *after* this
    call constructs sanitizing managers.  Used by the test-suite when
    ``REPRO_SANITIZE=1``; not meant for library code.
    """
    import repro
    import repro.bdd
    import repro.bdd.manager

    repro.bdd.manager.Manager = SanitizedManager  # type: ignore[misc]
    repro.bdd.Manager = SanitizedManager  # type: ignore[misc]
    repro.Manager = SanitizedManager  # type: ignore[misc]
