"""Cube-based lower bound on the minimum cover size (paper §4.1.1).

Theorem 7 makes constrain exact when the care set is a cube.  For any
cube ``p ≤ c``, the instance ``[f, p]`` has strictly more freedom than
``[f, c]``, so every cover of ``[f, c]`` is also a cover of ``[f, p]``
and therefore at least as large as the minimum for ``[f, p]`` — which
constrain computes.  Maximizing over many cubes of ``c`` yields a lower
bound on the EBM optimum; the paper enumerates the first 1000 cubes of a
depth-first traversal of ``c``.

Constrain by a cube is the Shannon cofactor by that cube (Touati et
al.), so the bound cofactors with :meth:`Manager.restrict_cube` and
runs no match test.
"""

from __future__ import annotations

from typing import Optional

from repro.bdd.manager import Manager, ZERO


def cube_lower_bound(
    manager: Manager, f: int, c: int, cube_limit: Optional[int] = 1000
) -> int:
    """Max over enumerated cubes ``p`` of ``c`` of ``|constrain(f, p)|``,
    each computed as the size of the cofactor of ``f`` by ``p``.

    Returns 1 for ``c = 0`` (the one-node constant covers).  The bound
    is monotone in ``cube_limit``: more cubes can only raise it.
    """
    if c == ZERO:
        return 1
    best = 0
    for cube in manager.cubes(c, limit=cube_limit):
        size = manager.size(manager.restrict_cube(f, cube))
        if size > best:
            best = size
    return max(best, 1)
