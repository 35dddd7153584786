"""Named registry of every minimization heuristic in the paper.

The experiment section (§4.1.2) compares thirteen "heuristics": the
eight distinct sibling matchers of Table 2, the level matcher
``opt_lv``, the trivial bounds ``f_and_c`` (onset) and ``f_or_nc``
(upper bound), the identity ``f_orig``, plus the per-call best ``min``
which the harness computes.  This module maps the paper's names to
callables with the uniform signature ``heuristic(manager, f, c) -> ref``
returning a completely specified cover.

The windowed scheduler of §3.4 is registered as ``sched`` — it is the
paper's proposed combination, evaluated here as an extension.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.bdd.manager import Manager, ONE, ZERO
from repro.core.criteria import Criterion
from repro.core.sibling import TABLE2_HEURISTICS, generic_td
from repro.core.levels import opt_lv
from repro.core.schedule import Schedule, scheduled_minimize
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

Heuristic = Callable[[Manager, int, int], int]


def _f_orig(manager: Manager, f: int, c: int) -> int:
    """The identity "heuristic": return f itself (always a cover)."""
    return f


def _f_and_c(manager: Manager, f: int, c: int) -> int:
    """The onset bound ``f·c`` (the smallest cover as a *set*)."""
    return manager.and_(f, c)


def _f_or_nc(manager: Manager, f: int, c: int) -> int:
    """The upper bound ``f + ¬c`` (the largest cover as a *set*)."""
    return manager.or_(f, c ^ 1)


def _opt_lv(manager: Manager, f: int, c: int) -> int:
    return opt_lv(manager, f, c)


def _opt_lv_osm(manager: Manager, f: int, c: int) -> int:
    """Level matching with the osm criterion (safe per Theorem 12)."""
    return opt_lv(manager, f, c, criterion=Criterion.OSM)


def _opt_lv_batched(manager: Manager, f: int, c: int) -> int:
    """Level matching with the §3.3.1 candidate-set size limit."""
    return opt_lv(manager, f, c, batch_size=64)


def _sched(manager: Manager, f: int, c: int) -> int:
    # degrade=True: under a resource budget the schedule hands back its
    # best safe intermediate instead of losing the whole call.
    return scheduled_minimize(manager, f, c, Schedule(), degrade=True)


def _sched_fast(manager: Manager, f: int, c: int) -> int:
    """The schedule with the expensive level steps skipped (§3.4)."""
    return scheduled_minimize(
        manager, f, c, Schedule(use_level_steps=False), degrade=True
    )


def _robust(manager: Manager, f: int, c: int) -> int:
    """The combination the paper's conclusion calls for (§5).

    "When [the care onset] is small, those heuristics that avoid
    introducing new variables work best; when it is large, those
    heuristics that examine many possible matches work best.  We
    suggest combining the merits of both of these classes."  This
    dispatches on the onset fraction: osm_bt for sparse care sets,
    opt_lv for dense ones, guarded by the Proposition 6 remedy.
    """
    from repro.core.ispec import ISpec

    fraction = ISpec(manager, f, c).c_onset_fraction()
    if fraction > 0.95:
        cover = opt_lv(manager, f, c)
    else:
        cover = generic_td(
            manager,
            f,
            c,
            Criterion.OSM,
            match_complement=True,
            no_new_vars=True,
        )
    if manager.size(cover) < manager.size(f):
        return cover
    return f


def _build_registry() -> Dict[str, Heuristic]:
    registry: Dict[str, Heuristic] = {}
    for heuristic in TABLE2_HEURISTICS:
        registry[heuristic.name] = heuristic
    registry["opt_lv"] = _opt_lv
    registry["opt_lv_osm"] = _opt_lv_osm
    registry["opt_lv_b64"] = _opt_lv_batched
    registry["f_orig"] = _f_orig
    registry["f_and_c"] = _f_and_c
    registry["f_or_nc"] = _f_or_nc
    registry["sched"] = _sched
    registry["sched_fast"] = _sched_fast
    registry["robust"] = _robust
    return registry


#: Every named heuristic, keyed by the paper's names.
HEURISTICS: Dict[str, Heuristic] = _build_registry()

#: The twelve heuristics the paper's tables report (min is computed).
PAPER_HEURISTICS: Tuple[str, ...] = (
    "constrain",
    "restrict",
    "osm_td",
    "osm_nv",
    "osm_cp",
    "osm_bt",
    "tsm_td",
    "tsm_cp",
    "opt_lv",
    "f_orig",
    "f_and_c",
    "f_or_nc",
)


def register_heuristic(
    name: str, heuristic: Heuristic, replace: bool = False
) -> None:
    """Register a custom heuristic under ``name``.

    Registered heuristics are dispatchable everywhere a paper name is:
    :func:`get_heuristic`, :func:`minimize`, the experiment harness,
    and — important for :mod:`repro.serve` — inside pool workers, which
    resolve heuristics by name in the child process.  With the pool's
    default ``fork`` start method, anything registered *before the pool
    starts* is inherited by every worker; under ``spawn`` only
    importable module-level registrations are visible.

    Raises :class:`ValueError` if ``name`` is taken and ``replace`` is
    false — silently shadowing a paper heuristic would corrupt every
    table.
    """
    if not callable(heuristic):
        raise ValueError("heuristic %r is not callable" % (heuristic,))
    if name in HEURISTICS and not replace:
        raise ValueError(
            "heuristic %r is already registered; pass replace=True to "
            "overwrite it" % name
        )
    HEURISTICS[name] = heuristic


def unregister_heuristic(name: str) -> Heuristic:
    """Remove a registered heuristic; returns the removed callable.

    Refuses to remove the paper's own heuristics — tests that register
    throwaway heuristics use this to clean up after themselves.
    """
    if name in PAPER_HEURISTICS or name not in HEURISTICS:
        raise KeyError(
            "cannot unregister %r: %s"
            % (
                name,
                "it is a paper heuristic"
                if name in PAPER_HEURISTICS
                else "it is not registered",
            )
        )
    return HEURISTICS.pop(name)


def observed_heuristic(name: str, heuristic: Heuristic) -> Heuristic:
    """Wrap a heuristic with per-call metrics and a trace span.

    Records a call counter and input/output size histograms under
    ``heuristic.<name>.*`` in the active metrics registry, and opens a
    ``heuristic.<name>`` span on the active tracer.  The sizes cost one
    reachable-set sweep each, which is why :func:`get_heuristic` only
    applies this wrapper while observability is actually on.
    """

    def observed(manager: Manager, f: int, c: int) -> int:
        with obs_trace.span("heuristic." + name):
            cover = heuristic(manager, f, c)
        mreg = obs_metrics.active()
        if mreg is not None:
            mreg.inc("heuristic.%s.calls" % name)
            mreg.observe("heuristic.%s.input_size" % name, manager.size(f))
            mreg.observe(
                "heuristic.%s.output_size" % name, manager.size(cover)
            )
        return cover

    observed.__name__ = "observed:" + name
    observed.__wrapped__ = heuristic
    return observed


def get_heuristic(
    name: str,
    audited: Optional[bool] = None,
    guarded: Optional[bool] = None,
    budget=None,
) -> Heuristic:
    """Look up a heuristic by its paper name.

    ``audited`` wraps the heuristic with the per-call contract checks of
    :mod:`repro.analysis.contracts` (cover containment, no-new-vars,
    never-grow, the Theorem-7 cube bound).  The default ``None`` defers
    to the ``REPRO_CHECK`` environment switch, so setting
    ``REPRO_CHECK=1`` audits every dispatched heuristic call
    library-wide without code changes.

    ``guarded`` wraps the (possibly audited) heuristic with
    :func:`repro.robust.guard.guard`, so budget trips and contract
    violations degrade to the identity cover
    ``g = f`` instead of raising.  The default ``None`` defers to the
    ``REPRO_GUARD`` environment switch; passing a
    :class:`~repro.robust.governor.Budget` implies guarding (an
    enforced budget without a degradation path would just crash).
    The guard wraps *outside* the audit, so an audit-detected contract
    violation degrades rather than propagating.
    """
    try:
        heuristic = HEURISTICS[name]
    except KeyError:
        raise KeyError(
            "unknown heuristic %r; available: %s"
            % (name, ", ".join(sorted(HEURISTICS)))
        ) from None
    if audited is None:
        from repro.analysis.checked import checking_enabled

        audited = checking_enabled()
    if audited:
        from repro.analysis.contracts import audited_heuristic

        heuristic = audited_heuristic(name, heuristic)
    if guarded is None:
        from repro.robust.guard import guarding_enabled

        guarded = guarding_enabled() or budget is not None
    if guarded:
        from repro.robust.guard import guard

        heuristic = guard(heuristic, name=name, budget=budget)
    # Observability wraps outermost — and only while a registry or a
    # tracer is actually active, so the un-observed dispatch path still
    # returns the raw registry callable (identity matters to callers
    # that compare against HEURISTICS entries).
    if obs_metrics.enabled() or obs_trace.active() is not None:
        heuristic = observed_heuristic(name, heuristic)
    return heuristic


def minimize(manager: Manager, f: int, c: int, method: str = "osm_bt") -> int:
    """Minimize ``[f, c]``; the default method is the paper's overall pick.

    Section 4.2: "Overall, osm_bt is preferred, since it combines good
    minimization with small runtimes."
    """
    return get_heuristic(method)(manager, f, c)


def safe_minimize(
    manager: Manager, f: int, c: int, method: str = "osm_bt"
) -> int:
    """Minimize, but never return something larger than ``f``.

    Proposition 6 shows every non-optimal criterion-based algorithm has
    instances where it *increases* the size; the practical remedy the
    paper gives is to "compare the size of the result with the original
    f, and return the smaller of the two" (such an algorithm is
    implicitly sensitive to f's values on the don't-care points, so the
    proposition does not apply to it).
    """
    cover = get_heuristic(method)(manager, f, c)
    if manager.size(cover) < manager.size(f):
        return cover
    return f


def minimize_interval(
    manager: Manager, lower: int, upper: int, method: str = "osm_bt"
) -> int:
    """Find a small BDD inside a function interval ``[lower, upper]``.

    Section 2: the interval problem reduces to EBM with
    ``c = lower + ¬upper`` and any representative in the interval.
    Requires ``lower ≤ upper``; the result ``g`` satisfies
    ``lower ≤ g ≤ upper``.
    """
    if not manager.leq(lower, upper):
        raise ValueError("empty interval: lower is not contained in upper")
    care = manager.or_(lower, upper ^ 1)
    return safe_minimize(manager, lower, care, method=method)
