"""The shared Definition 2 cover check.

A completely specified ``g`` covers the incompletely specified function
``[f, c]`` iff ``f·c ≤ g ≤ f + ¬c`` (paper Definition 2), which is
equivalent to ``(g ⊕ f)·c = 0``: g agrees with f everywhere on the care
set.  Every consumer in the repo — :class:`repro.core.ispec.ISpec`, the
contract auditor, the guard wrapper, the serving pool's reply check, the
chaos load validator, and the ``repro.verify`` oracle pack — phrases the
check through these two helpers so the definition lives in one place.
The verdict is node-free (:meth:`Manager.agree`); only callers that need
the offending minterms build the disagreement.
"""

from __future__ import annotations

from repro.bdd.manager import Manager


def cover_disagreement(manager: Manager, f: int, c: int, g: int) -> int:
    """Ref of ``(g ⊕ f)·c``: the care minterms where ``g`` disagrees.

    ``ZERO`` iff ``g`` is a valid Definition 2 cover of ``[f, c]``.
    The ref itself is returned (not just the verdict) so callers can
    count or enumerate the offending minterms in diagnostics.
    """
    return manager.and_(manager.xor(g, f), c)


def is_def2_cover(manager: Manager, f: int, c: int, g: int) -> bool:
    """Does ``g`` cover ``[f, c]`` per Definition 2 (``f·c ≤ g ≤ f + ¬c``)?

    Builds no node: g and f must agree wherever c holds.
    """
    return manager.agree(g, f, c)
