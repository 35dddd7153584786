"""Where a benchmark record came from.

Every committed ``BENCH_*.json`` record carries :func:`provenance`
under its ``provenance`` key: the commit, host and command that
produced its numbers, and whether the checkout had uncommitted changes.
The keys are those of the ``--out`` files of ``benchmarks/e2e/run.py``,
which lack ``dirty``.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from typing import Optional, Sequence


def _git(*args: str) -> Optional[str]:
    """Stdout of ``git args`` run in this package's checkout, or None
    when git fails (no git, or not a checkout)."""
    try:
        done = subprocess.run(
            ("git",) + args,
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout if done.returncode == 0 else None


def provenance(argv: Optional[Sequence[str]] = None) -> dict:
    """``commit``, ``dirty``, ``nproc``, ``python``, ``platform``,
    ``argv``, ``time``.

    ``commit`` is the ``HEAD`` of the checkout this package runs from,
    or None outside a git checkout.  ``dirty`` is True when
    ``git status --porcelain`` lists a change, so the numbers were
    measured on a tree that ``commit`` does not name; False on a clean
    tree; None outside a checkout.  ``argv`` defaults to
    ``sys.argv[1:]``.
    """
    commit = (_git("rev-parse", "HEAD") or "").strip() or None
    status = _git("status", "--porcelain") if commit else None
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status.strip()),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "argv": list(sys.argv[1:] if argv is None else argv),
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
