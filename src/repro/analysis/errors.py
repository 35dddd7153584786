"""Exception types of the analysis layer.

The library's correctness rests on two mechanically checkable contracts
(paper Section 2): structural canonicity of every ROBDD under the
manager's complement-edge normalization, and cover containment
``f·c ≤ g ≤ f + ¬c`` for every heuristic result.  Violations of either
are *bugs*, never recoverable conditions, so they get their own
exception hierarchy — and, unlike a bare ``assert``, they are **not**
stripped under ``python -O`` (lint rule L3 enforces this in library
code).

This module is import-light on purpose: :mod:`repro.bdd.manager` raises
:class:`InvariantError`, so nothing here may import back into the BDD
package.
"""

from __future__ import annotations


class AnalysisError(Exception):
    """Base class of every error raised by :mod:`repro.analysis`."""


class InvariantError(AnalysisError, AssertionError):
    """A structural invariant of the BDD representation was violated.

    Raised by :meth:`repro.bdd.manager.Manager.validate` and by
    :class:`repro.analysis.checked.CheckedManager` when a reachable node
    breaks canonicity: non-descending edges, a complemented then-edge,
    equal children, or a stale unique-table entry.

    Subclasses :class:`AssertionError` for backward compatibility with
    callers that treated ``validate`` failures as assertion failures,
    but is raised unconditionally — ``python -O`` does not disable it.
    """


class SanitizerError(AnalysisError):
    """A BDD ref was used outside the scope that makes it meaningful.

    Raised by the runtime RefSanitizer
    (:class:`repro.analysis.sanitize.SanitizedManager`, enabled with
    ``REPRO_SANITIZE=1``) in exactly two situations, mirroring the
    static flow rules F1/F2 of :mod:`repro.analysis.flow`:

    * **cross-manager use** — a ref minted by one manager is passed to
      an operation of a different manager.  Refs are plain ints; the
      foreign manager would silently interpret the index against its
      own node table and compute garbage.
    * **stale-generation use** — a ref minted before a
      ``gc(compact=True)`` is used without first being translated
      through the :class:`~repro.bdd.manager.Remap` that collection
      returned.

    Both are *bugs* at the call site, never recoverable conditions.
    """


class ContractError(AnalysisError):
    """A minimization heuristic broke one of its advertised contracts.

    The contracts audited (see :mod:`repro.analysis.contracts`): cover
    containment (Definition 2), the no-new-vars guarantee of the
    ``*_nv`` variants, the never-grow guarantee of Proposition-6-safe
    wrappers, the Theorem-7 lower bound on cube care sets, and the
    i-covering safety of windowed schedule transformations (§3.4).
    """


class BudgetExceeded(Exception):
    """A bounded BDD computation ran out of its resource budget.

    Unlike :class:`AnalysisError` and its subclasses — which mark *bugs*
    — a budget trip is an expected, recoverable condition: ``constrain``
    can blow up quadratically and Proposition 4 exhibits unbounded
    growth for the matching heuristics.  The fault-tolerance layer
    (:mod:`repro.robust`) catches this hierarchy and degrades to a safe
    cover instead of crashing.

    Deliberately *not* an :class:`AnalysisError`: code that treats
    analysis errors as fatal must never swallow a mere budget trip, and
    code that retries budget trips must never retry a real invariant
    violation.
    """


class NodeBudgetExceeded(BudgetExceeded):
    """The governed computation created more BDD nodes than allowed."""


class StepBudgetExceeded(BudgetExceeded):
    """The governed computation took more ITE steps than allowed."""


class DeadlineExceeded(BudgetExceeded):
    """The governed computation overran its wall-clock deadline."""


#: Failures a caller can degrade through instead of crashing: a budget
#: trip, or a result that broke an invariant or contract.  Anything
#: else is a programming error and propagates.  The sweep harness
#: records them per cell, the §3.4 schedule returns its last safe
#: intermediate, and the guard falls back to the identity cover.
RECOVERABLE_ERRORS = (BudgetExceeded, ContractError, InvariantError)

#: Failure classes for retries and breakers: a budget trip is transient
#: (a bigger budget might succeed); a broken invariant or contract, a
#: non-cover included, is deterministic (retrying cannot help).
TRANSIENT = "transient"
DETERMINISTIC = "deterministic"
