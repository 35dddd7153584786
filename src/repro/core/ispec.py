"""Incompletely specified functions ``[f, c]`` (paper Section 2).

``[f, c]`` denotes the incompletely specified function whose onset is
``f·c``, offset ``¬f·c`` and don't-care set ``¬c``.  A completely
specified ``g`` *covers* ``[f, c]`` iff ``f·c ≤ g ≤ f + ¬c``
(Definition 2).  ``[f1, c1]`` *i-covers* ``[f2, c2]`` iff every cover of
the first is a cover of the second.

The class is a thin immutable pair of refs plus the relations the paper
uses; heuristics pass refs around directly for speed and wrap results in
:class:`ISpec` at API boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.bdd.cover import is_def2_cover
from repro.bdd.manager import Manager, ONE, ZERO
from repro.bdd.truthtable import instance_from_leaf_string


@dataclass(frozen=True)
class ISpec:
    """An incompletely specified function: care function ``c`` over ``f``."""

    manager: Manager
    f: int
    c: int

    # -- derived sets -----------------------------------------------------
    def onset(self) -> int:
        """Ref of the onset ``f·c``."""
        return self.manager.and_(self.f, self.c)

    def offset(self) -> int:
        """Ref of the offset ``¬f·c``."""
        return self.manager.and_(self.f ^ 1, self.c)

    def dcset(self) -> int:
        """Ref of the don't-care set ``¬c``."""
        return self.c ^ 1

    def upper(self) -> int:
        """Largest cover, ``f + ¬c``."""
        return self.manager.or_(self.f, self.c ^ 1)

    def interval(self) -> Tuple[int, int]:
        """The pair ``(f·c, f + ¬c)`` bounding all covers."""
        return self.onset(), self.upper()

    # -- relations --------------------------------------------------------
    def is_cover(self, g: int) -> bool:
        """Does the completely specified ``g`` cover ``[f, c]``?

        Equivalent to ``(g ⊕ f)·c = 0``: g agrees with f on the care set.
        """
        return is_def2_cover(self.manager, self.f, self.c, g)

    def i_covers(self, other: "ISpec") -> bool:
        """Does every cover of ``self`` cover ``other``?

        Holds iff ``other.c ≤ self.c`` and the two agree on ``other.c``.
        """
        manager = self.manager
        return manager.leq(other.c, self.c) and manager.agree(
            self.f, other.f, other.c
        )

    def equivalent(self, other: "ISpec") -> bool:
        """Same care set and same values on it (the paper's equality)."""
        return self.c == other.c and self.manager.agree(
            self.f, other.f, self.c
        )

    def care_is_cube(self) -> bool:
        """Is the care function a cube?  (Theorem 7's hypothesis.)"""
        return self.manager.is_cube(self.c)

    def is_trivial(self) -> bool:
        """True when every heuristic is known optimal (paper §4.1.2 filter).

        Covers the cases: care set empty, care set a cube, ``c ≤ f``
        (constant 1 covers), and ``c ≤ ¬f`` (constant 0 covers).
        """
        manager = self.manager
        if self.c == ZERO or manager.is_cube(self.c):
            return True
        if manager.leq(self.c, self.f):
            return True
        return manager.leq(self.c, self.f ^ 1)

    def c_onset_fraction(self) -> float:
        """Onset fraction of ``c`` over the union of supports (§4.1.1).

        The paper's ``c_onset_size``: the percentage of onset points of
        ``c`` relative to the Boolean space spanned by the union of the
        variable supports of ``f`` and ``c``.
        """
        manager = self.manager
        if self.c == ONE:
            return 1.0
        if self.c == ZERO:
            return 0.0
        # The onset fraction is invariant under which variable universe
        # (any superset of support(c)) it is counted over, so counting
        # over all declared variables matches the paper's definition.
        total_vars = manager.num_vars
        count = manager.sat_count(self.c, total_vars)
        return count / (1 << total_vars)

    # -- construction -------------------------------------------------------
    @staticmethod
    def from_interval(manager: Manager, lower: int, upper: int) -> "ISpec":
        """Build ``[f, c]`` from a function interval ``(f_m, f_M)``.

        Per Section 2: ``c = f_m + ¬f_M`` and any ``f`` in the interval
        works as the onset representative; we take ``f = f_m``.
        Requires ``lower ≤ upper``.
        """
        if not manager.leq(lower, upper):
            raise ValueError("empty interval: lower is not contained in upper")
        care = manager.or_(lower, upper ^ 1)
        return ISpec(manager, lower, care)

    def __repr__(self) -> str:
        return "<ISpec |f|=%d |c|=%d>" % (
            self.manager.size(self.f),
            self.manager.size(self.c),
        )


def parse_instance(manager: Manager, text: str) -> ISpec:
    """Parse a paper-style leaf string like ``"d1 01"`` into an ISpec."""
    f, c = instance_from_leaf_string(manager, text)
    return ISpec(manager, f, c)
