"""Sibling-matching heuristics (paper Section 3.2, Figure 2, Table 2).

The generic top-down algorithm walks ``f`` and ``c`` in lock-step,
splitting both at the minimum top variable.  At every node it tries to
match the two sibling subfunctions ``[fT, cT]`` and ``[fE, cE]`` under a
chosen criterion; a match eliminates the parent node (and, for a direct
match, the variable).  Three parameters generate the whole family of
Table 2:

* the matching criterion (``osdm``/``osm``/``tsm``),
* the *match-complement* flag — also try matching one sibling against
  the complement of the other (keeps the parent, halves the recursion),
* the *no-new-vars* flag — when ``f`` is independent of the splitting
  variable, existentially quantify it out of ``c`` instead of splitting,
  so the result never gains a variable ``f`` did not depend on.

``constrain`` (osdm/–/–) and ``restrict`` (osdm/–/nnv) fall out as
special cases and are defined as exactly those calls; the textbook
recursions of both live in the test suite as the reference.

One explicit-stack walk over ``(f, c)`` implements Figure 2 (its line
numbers are marked in the code), so depth is bounded by heap, not by
the interpreter recursion limit.  Two result conventions are provided:

* :func:`generic_td` follows Figure 2 literally and returns a
  **completely specified cover** (at ``c = 1`` or constant ``f`` it
  returns ``f``, assigning remaining DCs to ``f``'s values).
* :func:`sibling_pass` returns an **incompletely specified pair**
  ``(f', c')`` that i-covers the input and only performs matches inside
  a window of levels ``[lo, hi)`` — the building block of the
  Section 3.4 scheduler, which wants safe transformations that do not
  commit the remaining don't cares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.bdd.manager import Manager, ONE, ZERO, TERMINAL_LEVEL
from repro.core.criteria import Criterion, try_match
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace


@dataclass(frozen=True)
class SiblingHeuristic:
    """A point in the Table 2 parameter space."""

    name: str
    criterion: Criterion
    match_complement: bool
    no_new_vars: bool

    def __call__(self, manager: Manager, f: int, c: int) -> int:
        """Minimize ``[f, c]`` and return a completely specified cover."""
        return generic_td(
            manager,
            f,
            c,
            self.criterion,
            match_complement=self.match_complement,
            no_new_vars=self.no_new_vars,
        )


#: The eight distinct heuristics of Table 2 (rows 3, 4, 10, 12 coincide
#: with rows 1, 2, 9, 11 respectively, as the paper notes).
TABLE2_HEURISTICS: Tuple[SiblingHeuristic, ...] = (
    SiblingHeuristic("constrain", Criterion.OSDM, False, False),
    SiblingHeuristic("restrict", Criterion.OSDM, False, True),
    SiblingHeuristic("osm_td", Criterion.OSM, False, False),
    SiblingHeuristic("osm_nv", Criterion.OSM, False, True),
    SiblingHeuristic("osm_cp", Criterion.OSM, True, False),
    SiblingHeuristic("osm_bt", Criterion.OSM, True, True),
    SiblingHeuristic("tsm_td", Criterion.TSM, False, False),
    SiblingHeuristic("tsm_cp", Criterion.TSM, True, False),
)


# ----------------------------------------------------------------------
# The pair walk: Figure 2 on an explicit stack
# ----------------------------------------------------------------------
# The pair under evaluation lives in locals; each frame is work pending
# for an ancestor pair:
#   (_ELSE, f, c)      the else-pair, evaluated after the then-pair
#   (_JOIN, key, top)  both children done: build the parent node(s)
#   (_FLIP, key, top)  the complement-matched child done (line 4)
#   (_TAIL, key)       a one-child step (lines 2 and 3) done: its result
#                      is the parent's
_ELSE, _JOIN, _FLIP, _TAIL = range(4)


def _walk(
    manager: Manager,
    f: int,
    c: int,
    criterion: Criterion,
    match_complement: bool,
    no_new_vars: bool,
    lo: int,
    hi: int,
    pairs: bool,
):
    """Figure 2 over ``(f, c)``, matching only at levels in ``[lo, hi)``.

    Above ``lo`` the walk splits without matching; from ``hi`` down it
    leaves pairs untouched.  With ``pairs`` every result is a pair
    ``(f', c')`` that i-covers its input; otherwise it is a cover.

    Pairs are visited in the recursive post-order — the then-pair
    before the else-pair, the cache probed when a pair is reached — so
    manager operations, match tests and budget trips happen in the
    order of the textbook recursion, while depth is bounded by heap
    rather than by the interpreter recursion limit.
    """
    top_branches = manager.top_branches
    make_node = manager.make_node
    or_ = manager.or_
    # Looked up per walk, so a wrapper installed on the module global
    # (e.g. a profiler's call counter) sees every match test.
    match = try_match
    mreg = obs_metrics.active()
    cache: Dict[Tuple[int, int], object] = {}
    cache_get = cache.get
    frames: List[tuple] = []
    push = frames.append
    pop = frames.pop
    then_results: List[object] = []
    while True:
        # Line 1: terminal cases return f.  (Only the pair walk reaches
        # c = 0, by splitting above its window: under every criterion a
        # child with c = 0 matches its sibling.)
        if c == ONE or c == ZERO or f == ONE or f == ZERO:
            result = (f, c) if pairs else f
        else:
            key = (f, c)
            result = cache_get(key)
            if result is None:
                # Split both at the top variable (bdd_get_branches): a
                # function rooted below it is its own cofactor.
                f_level, f_then, f_else = top_branches(f)
                c_level, c_then, c_else = top_branches(c)
                if f_level < c_level:
                    top = f_level
                    c_then = c_else = c
                else:
                    top = c_level
                    if f_level > top:
                        f_then = f_else = f
                if top >= hi:
                    # Below the window: the pair stays as it is.
                    result = cache[key] = key
                else:
                    if top < lo:
                        # Above the window: split without matching.
                        push((_JOIN, key, top))
                        push((_ELSE, f_else, c_else))
                        f, c = f_then, c_then
                        continue
                    if no_new_vars and f_level > top:
                        # Line 2: f is independent of the splitting
                        # variable; quantify it out of c instead, so
                        # f's support never grows.
                        if mreg is not None:
                            mreg.inc("sibling.new_vars_avoided")
                        push((_TAIL, key))
                        c = or_(c_then, c_else)
                        continue
                    if mreg is not None and f_level > top and not pairs:
                        # Splitting on a variable f does not depend on:
                        # the cover may gain it (Table 2's "new vars";
                        # counted for covers, not for the window pass).
                        mreg.inc("sibling.new_vars_introduced")
                    found = match(
                        criterion, manager, f_then, c_then, f_else, c_else
                    )
                    if found is not None:
                        # Line 3: a direct sibling match eliminates the
                        # parent node and its variable.
                        if mreg is not None:
                            mreg.inc("sibling.matches_accepted")
                        push((_TAIL, key))
                        f, c = found
                        continue
                    if match_complement:
                        found = match(
                            criterion,
                            manager,
                            f_then,
                            c_then,
                            f_else,
                            c_else,
                            complemented=True,
                        )
                        if found is not None:
                            # Line 4: the then-branch matches the
                            # complement of the else-branch; the parent
                            # stays, one child walk suffices.
                            if mreg is not None:
                                mreg.inc("sibling.complement_matches")
                            push((_FLIP, key, top))
                            f, c = found
                            continue
                    # Line 5: no match; walk both children.
                    if mreg is not None:
                        mreg.inc("sibling.matches_rejected")
                    push((_JOIN, key, top))
                    push((_ELSE, f_else, c_else))
                    f, c = f_then, c_then
                    continue
        # ``result`` is complete: finish the frames waiting on it, then
        # resume the innermost pending else-pair (if any).
        while True:
            if not frames:
                return result
            frame = pop()
            kind = frame[0]
            if kind == _ELSE:
                then_results.append(result)
                _, f, c = frame
                break
            key = frame[1]
            if kind == _JOIN:
                top = frame[2]
                then_result = then_results.pop()
                if pairs:
                    result = (
                        make_node(top, then_result[0], result[0]),
                        make_node(top, then_result[1], result[1]),
                    )
                else:
                    result = make_node(top, then_result, result)
            elif kind == _FLIP:
                top = frame[2]
                if pairs:
                    branch_f, branch_c = result
                    result = make_node(top, branch_f, branch_f ^ 1), branch_c
                else:
                    result = make_node(top, result, result ^ 1)
            # Line 6: cache the pair's result.
            cache[key] = result


def generic_td(
    manager: Manager,
    f: int,
    c: int,
    criterion: Criterion,
    match_complement: bool = False,
    no_new_vars: bool = False,
) -> int:
    """The generic top-down sibling matcher of Figure 2.

    Returns a completely specified cover of ``[f, c]``.  The care
    function must be non-zero (the paper's entry assertion); for the
    degenerate ``c = 0`` every function covers, and ``ONE`` (size 1) is
    returned.
    """
    if c == ZERO:
        return ONE
    with obs_trace.span("sibling.generic_td", criterion=criterion.name):
        return _walk(
            manager,
            f,
            c,
            criterion,
            match_complement,
            no_new_vars,
            0,
            TERMINAL_LEVEL,
            False,
        )


def constrain(manager: Manager, f: int, c: int) -> int:
    """The constrain operator (generalized cofactor) of Coudert et al.

    Table 2's row (osdm, no complement, no no-new-vars).
    """
    return generic_td(manager, f, c, Criterion.OSDM)


def restrict(manager: Manager, f: int, c: int) -> int:
    """The restrict operator of Coudert et al.

    Table 2's row (osdm, no complement, no-new-vars): like constrain,
    but when ``f`` is independent of the splitting variable the
    variable is existentially quantified out of ``c``.
    """
    return generic_td(manager, f, c, Criterion.OSDM, no_new_vars=True)


def sibling_pass(
    manager: Manager,
    f: int,
    c: int,
    criterion: Criterion,
    match_complement: bool = False,
    no_new_vars: bool = False,
    lo: int = 0,
    hi: int = TERMINAL_LEVEL,
) -> Tuple[int, int]:
    """Apply sibling matching only at levels in ``[lo, hi)``.

    Returns an incompletely specified pair ``(f', c')`` that i-covers
    ``[f, c]``: every cover of the result covers the input.  Unlike
    :func:`generic_td`, no don't cares outside the window are committed,
    so further transformations retain their freedom (Section 3.4's
    notion of "safe" scheduling).
    """
    with obs_trace.span("sibling.pass", criterion=criterion.name, lo=lo, hi=hi):
        return _walk(
            manager,
            f,
            c,
            criterion,
            match_complement,
            no_new_vars,
            lo,
            hi,
            True,
        )
