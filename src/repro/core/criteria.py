"""Matching criteria: ``osdm``, ``osm``, ``tsm`` (paper Section 3.1.1).

Two incompletely specified functions *match* under a criterion when a
common i-cover exists using only the don't cares the criterion permits:

* **osdm** (one-sided DC match): ``[f1,c1] osdm [f2,c2]`` iff ``c1 = 0``
  — the first function is entirely don't care.  i-cover: ``[f2, c2]``.
* **osm** (one-sided match): iff ``(f1 ⊕ f2)·c1 = 0`` and ``c1 ≤ c2`` —
  the two can be made equal assigning DCs of the first only, and the DC
  set of the first contains that of the other.  i-cover: ``[f2, c2]``.
* **tsm** (two-sided match): iff ``(f1 ⊕ f2)·c1·c2 = 0`` — DCs from both
  sides may be assigned.  i-cover: ``[f1·c1 + f2·c2, c1 + c2]``.

An osdm match implies an osm match implies a tsm match (the strength
hierarchy).  Table 1 records that osdm is transitive only, osm is
reflexive and transitive, tsm is reflexive and symmetric.

Every test is a node-free :meth:`~repro.bdd.manager.Manager.agree`
walk: ``c1 ≤ c2`` is ``agree(c2, ONE, c1)``, osm's agreement is
``agree(f1, f2, c1)`` (both three-operand walks) and tsm is
``agree(f1, f2, c1, c2)``.  ``matches`` and the ``*_matches`` functions
state Definition 5 for the DMG and the tests; :func:`try_match`, the
heuristics' hot path, makes the same ``agree`` calls directly.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

from repro.bdd.manager import Manager, ONE, ZERO


class Criterion(enum.Enum):
    """The three matching criteria of Definition 5."""

    OSDM = "osdm"
    OSM = "osm"
    TSM = "tsm"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def osdm_matches(manager: Manager, f1: int, c1: int, f2: int, c2: int) -> bool:
    """One-sided DC match: the first function has no care points."""
    return c1 == ZERO


def osm_matches(manager: Manager, f1: int, c1: int, f2: int, c2: int) -> bool:
    """One-sided match (Definition 5.2); builds no node.

    :func:`try_match` makes these two tests inline, as ``agree`` calls;
    change both together.
    """
    return manager.leq(c1, c2) and manager.agree(f1, f2, c1)


def tsm_matches(manager: Manager, f1: int, c1: int, f2: int, c2: int) -> bool:
    """Two-sided match (Definition 5.3); builds no node.

    :func:`try_match` and the UMG's edge test make this call inline;
    change them together.
    """
    return manager.agree(f1, f2, c1, c2)


def matches(
    criterion: Criterion, manager: Manager, f1: int, c1: int, f2: int, c2: int
) -> bool:
    """Directional match test ``[f1,c1] criterion [f2,c2]``."""
    if criterion is Criterion.OSDM:
        return osdm_matches(manager, f1, c1, f2, c2)
    if criterion is Criterion.OSM:
        return osm_matches(manager, f1, c1, f2, c2)
    return tsm_matches(manager, f1, c1, f2, c2)


def i_cover_of_match(
    criterion: Criterion, manager: Manager, f1: int, c1: int, f2: int, c2: int
) -> Tuple[int, int]:
    """Common i-cover produced when ``[f1,c1] criterion [f2,c2]`` holds.

    Maximal don't-care part is preserved (Section 3.1.1): for osdm/osm
    the i-cover is the second function untouched; for tsm the care sets
    union and the onsets merge.
    """
    if criterion is Criterion.TSM:
        merged_c = manager.or_(c1, c2)
        if f1 == f2:
            # Same representative: keep it, so that e.g. the no-new-vars
            # flag has no effect on tsm (Table 2: rows 10/12 = 9/11).
            return f1, merged_c
        merged_f = manager.or_(
            manager.and_(f1, c1), manager.and_(f2, c2)
        )
        return merged_f, merged_c
    return f2, c2


def try_match(
    criterion: Criterion,
    manager: Manager,
    f1: int,
    c1: int,
    f2: int,
    c2: int,
    complemented: bool = False,
) -> Optional[Tuple[int, int]]:
    """Attempt a (possibly complemented) match between two functions.

    This is the paper's ``is_match``: for the directional criteria
    (osdm, osm) both directions are tried; tsm is symmetric so one test
    suffices.  With ``complemented=True`` the *second* function is
    complemented before matching, which implements the match-complement
    flag of Table 2: a successful result ``[g, cg]`` then means the
    first function is covered by covers of ``[g, cg]`` and the second by
    their complements.

    Returns the common i-cover ``(g, cg)`` for the first function's
    polarity, or None when no match exists.

    Equals :func:`matches` plus :func:`i_cover_of_match` in each
    direction, and makes the same ``agree`` calls on the same operands
    in the same order, without the frames of ``matches``,
    ``osm_matches`` and ``leq``; a property test
    (``test_try_match_is_matches_plus_i_cover``) holds the two
    spellings to the same verdicts, steps and memo.  With ``g2`` the
    second function in the tested polarity, osm forward is
    ``agree(c2, ONE, c1)`` then ``agree(f1, g2, c1)``, backward
    ``agree(c1, ONE, c2)`` then ``agree(g2, f1, c2)``; tsm is the one
    ``agree(f1, g2, c1, c2)``.
    """
    g2 = f2 ^ 1 if complemented else f2
    if criterion is Criterion.OSDM:
        # Both directions of osdm_matches, with their i-covers.
        if c1 == ZERO:
            return g2, c2
        if c2 == ZERO:
            return f1, c1
        return None
    agree = manager.agree
    if criterion is Criterion.TSM:
        if agree(f1, g2, c1, c2):
            return i_cover_of_match(criterion, manager, f1, c1, g2, c2)
        return None
    # osm_matches both ways: the care containment, then agreement on
    # the first's care set.  The i-cover is the matched-to function.
    if agree(c2, ONE, c1) and agree(f1, g2, c1):
        return g2, c2
    if agree(c1, ONE, c2) and agree(g2, f1, c2):
        return f1, c1
    return None
