"""Where a benchmark record came from.

Every committed ``BENCH_*.json`` record carries :func:`provenance`
under its ``provenance`` key: the commit, host and command that
produced its numbers.  The keys are those of the ``--out`` files of
``benchmarks/e2e/run.py``.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from typing import Optional, Sequence


def provenance(argv: Optional[Sequence[str]] = None) -> dict:
    """``commit``, ``nproc``, ``python``, ``platform``, ``argv``, ``time``.

    ``commit`` is the ``HEAD`` of the checkout this package runs from,
    or None outside a git checkout.  ``argv`` defaults to
    ``sys.argv[1:]``.
    """
    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "argv": list(sys.argv[1:] if argv is None else argv),
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
