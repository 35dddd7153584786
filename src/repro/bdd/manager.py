"""The BDD manager: node storage, unique table, and the operator core.

Representation
--------------

An edge (a *ref*) is an integer ``(node_index << 1) | complement_bit``.
Node index 0 is the single terminal node, so the constant functions are
``ONE = 0`` (regular edge to the terminal) and ``ZERO = 1`` (complemented
edge to the terminal).  Per-node attributes live in parallel lists
indexed by node index: the variable level, the *then* (high) child and
the *else* (low) child.

Canonicity with complement edges requires one branch to be regular; we
keep the *then* edge regular, as in CUDD.  ``make_node`` re-normalizes
by complementing the output when needed, so structurally equal functions
are always represented by the same ref and equality is ``==`` on ints.

Levels
------

A fixed variable ordering is used: level 0 is the topmost variable.  The
terminal node sits at ``TERMINAL_LEVEL``, a sentinel larger than any
variable level, which lets ``min`` pick the splitting variable without
special cases.

Kernels and memory management
-----------------------------

Every operator (``ite``, ``cofactor``, ``exists``/``forall``,
``and_exists``, ``vector_compose``, ``sat_count``, ``cubes``) runs as an
**iterative explicit-stack kernel**: pending work lives in a task list
of apply/reduce frames and child results in a result slot, so operation
depth is heap-bounded and independent of the interpreter recursion
limit.  Computed tables are probed before a frame is expanded, exactly
as the recursive formulation probed them before descending.

Dead nodes are reclaimed by :meth:`Manager.gc`, a mark-and-sweep
collector: live nodes are marked from caller-supplied roots plus the
refs pinned with :meth:`Manager.protect`, dead indices go onto a free
list that ``_make_raw`` recycles, and with ``compact=True`` the parallel
lists are rebuilt dense (the returned :class:`Remap` translates old refs
of surviving nodes to their new values).  Unprotected refs not passed as
roots are invalidated by a sweep — holders must re-derive or protect.
A collection repeating the last sweep's roots marks nothing: it pops
the nodes created since, the unique table's tail.

Yes/no questions build nothing: :meth:`Manager.agree` and
:meth:`Manager.leq` decide ``(f ⊕ g)·c·d = 0`` and ``f ≤ g`` by a
node-free walk that stops at the first counterexample.  The root is
decided by the terminal rules or the memo before any walk state
exists, and a root with ``d = ONE`` walks three operands.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.errors import InvariantError

#: Ref of the constant TRUE function.
ONE = 0
#: Ref of the constant FALSE function (complement edge to the terminal).
ZERO = 1

#: Sentinel level of the terminal node; larger than any variable level.
TERMINAL_LEVEL = 1 << 30

#: Step-hook event: a node was created in the unique table.
EVENT_NODE = "node"
#: Step-hook event: one ITE recursion step was taken, or one
#: :meth:`Manager.agree` state expanded.
EVENT_ITE = "ite"
#: Step-hook event: the computed tables were flushed (counters reset).
EVENT_CLEAR = "clear"

#: Kernel frame tags: an ``_APPLY`` frame evaluates one (sub)call, the
#: later tags combine already-computed child results.  Plain ints so
#: frame dispatch is an integer compare on the hot path.
_APPLY = 0
_REDUCE = 1
_AFTER_THEN = 2
_COMBINE = 3


class _CountingCache(dict):
    """A computed-table dict with opt-in hit/miss counting.

    :meth:`Manager.cache` always hands these out, so the object a caller
    holds stays valid across :meth:`Manager.attach_metrics` /
    :meth:`Manager.detach_metrics`: attaching installs the counting
    ``get`` *on the instance* (an instance attribute shadows the C-speed
    ``dict.get`` for normal attribute lookups) and detaching removes it
    again.  An unattached manager therefore probes caches at native dict
    speed, and no stale handle can desynchronize from the live cache —
    the earlier swap-the-object upgrade silently dropped writes made
    through handles fetched before ``attach_metrics``.

    Only the ``get`` path counts (library code probes caches exclusively
    through ``cache.get(key)``); a stored value is never ``None``, so
    the default sentinel cleanly separates hit from miss.  ``clear``
    resets the counters so the per-cache numbers restart with each cache
    flush, in lockstep with the §4.1.1 fairness protocol.
    """

    def __init__(self) -> None:
        super().__init__()
        self.hits = 0
        self.misses = 0

    def counting_get(self, key, default=None):
        value = dict.get(self, key, default)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def start_counting(self) -> None:
        """Zero the counters and route ``get`` through the counting path."""
        self.hits = 0
        self.misses = 0
        self.get = self.counting_get

    def stop_counting(self) -> None:
        """Restore native ``dict.get`` (contents and identity are kept)."""
        self.__dict__.pop("get", None)

    @property
    def counting(self) -> bool:
        """True iff lookups are currently being counted."""
        return "get" in self.__dict__

    def clear(self) -> None:
        dict.clear(self)
        self.hits = 0
        self.misses = 0


class Remap:
    """Old→new ref translation returned by a compacting :meth:`Manager.gc`.

    Calling the remap translates a pre-compaction ref of a *surviving*
    node into its post-compaction ref.  Refs of reclaimed nodes raise
    :class:`~repro.analysis.errors.InvariantError` — translating a dead
    ref is always a caller bug (the node's slot may already hold a
    different node).
    """

    __slots__ = ("_index_map",)

    def __init__(self, index_map: Dict[int, int]):
        self._index_map = index_map

    def __call__(self, ref: int) -> int:
        try:
            return (self._index_map[ref >> 1] << 1) | (ref & 1)
        except KeyError:
            raise InvariantError(
                "ref %d was reclaimed by the compacting gc; only nodes "
                "reachable from the gc roots or protected refs survive"
                % ref
            ) from None

    def __contains__(self, ref: int) -> bool:
        return (ref >> 1) in self._index_map

    def __len__(self) -> int:
        return len(self._index_map)


def _reduce_span(
    items: List[int],
    lo: int,
    hi: int,
    combine: Callable[[int, int], int],
    absorbing: int,
) -> int:
    """``combine`` over ``items[lo:hi]`` as a tree split at the middle.

    The first half takes the extra item of an odd span, and the
    recursion is ⌈log2 n⌉ deep.  A module function, not a closure: a
    recursive closure is a reference cycle, and through ``combine`` (a
    bound method) it would keep the manager alive until the next full
    cyclic collection.  Returns ``absorbing`` as soon as the first half
    reduces to it.
    """
    if hi - lo == 1:
        return items[lo]
    mid = (lo + hi + 1) // 2
    first = _reduce_span(items, lo, mid, combine, absorbing)
    if first == absorbing:
        return absorbing
    return combine(first, _reduce_span(items, mid, hi, combine, absorbing))


class Manager:
    """Owns BDD nodes and implements the operator core.

    Parameters
    ----------
    var_names:
        Optional initial variable names, created in order (level 0
        first).  Further variables can be added with :meth:`new_var`.
    """

    def __init__(self, var_names: Optional[Sequence[str]] = None):
        # The step hook must exist before the first node is created.
        self._step_hook: Optional[Callable[[str], None]] = None
        # Cumulative operation counters (reported by statistics()).
        # Plain int increments on the hot paths; cheap enough to stay
        # always-on, unlike the opt-in per-cache counters below.
        self._ite_calls: int = 0
        self._ite_hits: int = 0
        self._ite_misses: int = 0
        self._nodes_created: int = 0
        self._peak_nodes: int = 1
        # Garbage-collection state: refcounted pinned refs, the free
        # list of swept slot indices, and the cumulative gc counters.
        self._protected: Dict[int, int] = {}
        self._free: List[int] = []
        self._gc_runs: int = 0
        self._nodes_reclaimed: int = 0
        # The full root tuple of the last non-compacting collection and
        # the unique-table length it left: a repeat of those roots can
        # only reclaim the table's tail (see gc).  None = no such sweep
        # since creation or the last compaction.
        self._swept_roots: Optional[Tuple[int, ...]] = None
        self._swept_live: int = 0
        # Cumulative agree() states expanded (a node-free walk step).
        self._agree_steps: int = 0
        # Compaction epoch: bumped by every gc(compact=True).  Refs
        # minted before the bump are only meaningful through the Remap
        # that same collection returned; the RefSanitizer
        # (repro.analysis.sanitize) stamps refs with this value to
        # catch stale-ref use at runtime.
        self._gc_generation: int = 0
        # Index of the most recently created node (for audit hooks).
        self._last_created: int = 0
        # Attached repro.obs.metrics registry (None = not collecting).
        self._metrics = None
        self._metrics_baseline: Optional[Dict[str, int]] = None
        # Node 0 is the terminal.  Its children are self-loops that are
        # never followed; the level is the sentinel.
        self._level: List[int] = [TERMINAL_LEVEL]
        self._high: List[int] = [ONE]
        self._low: List[int] = [ONE]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        self._op_caches: Dict[str, dict] = {}
        # Quantified level sets interned to small ints for the memo keys
        # of exists/forall/and_exists; flushed with the computed tables.
        self._level_set_ids: Dict[frozenset, int] = {}
        self._var_names: List[str] = []
        self._name_to_level: Dict[str, int] = {}
        if var_names is not None:
            for name in var_names:
                self.new_var(name)

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        """Number of variables declared so far."""
        return len(self._var_names)

    @property
    def var_names(self) -> Tuple[str, ...]:
        """Variable names in level order (level 0 first)."""
        return tuple(self._var_names)

    def new_var(self, name: Optional[str] = None) -> int:
        """Declare a new variable at the bottom of the order.

        Returns the ref of the positive literal.
        """
        level = len(self._var_names)
        if name is None:
            name = "x%d" % (level + 1)
        if name in self._name_to_level:
            raise ValueError("variable %r already declared" % name)
        self._var_names.append(name)
        self._name_to_level[name] = level
        return self.make_node(level, ONE, ZERO)

    def var(self, which) -> int:
        """Ref of the positive literal for a variable.

        ``which`` may be a level (int) or a declared variable name.
        """
        if isinstance(which, str):
            try:
                level = self._name_to_level[which]
            except KeyError:
                raise KeyError("unknown variable %r" % which) from None
        else:
            level = which
            if not 0 <= level < len(self._var_names):
                raise IndexError("no variable at level %d" % level)
        return self.make_node(level, ONE, ZERO)

    def level_of_var(self, name: str) -> int:
        """Level of a declared variable name."""
        return self._name_to_level[name]

    def name_of_level(self, level: int) -> str:
        """Name of the variable at ``level``."""
        return self._var_names[level]

    def ensure_vars(self, count: int) -> None:
        """Declare anonymous variables until ``count`` exist."""
        while len(self._var_names) < count:
            self.new_var()

    # ------------------------------------------------------------------
    # Node structure
    # ------------------------------------------------------------------
    def make_node(self, level: int, high: int, low: int) -> int:
        """Find-or-create the node ``(level, high, low)``.

        Applies the deletion rule (equal children) and the complement
        normalization (*then* edge regular), so the result is canonical.
        """
        if high == low:
            return high
        if high & 1:
            # Normalize: complement both children and the output.
            return self._make_raw(level, high ^ 1, low ^ 1) | 1
        return self._make_raw(level, high, low)

    def _make_raw(self, level: int, high: int, low: int) -> int:
        key = (level, high, low)
        index = self._unique.get(key)
        if index is None:
            free = self._free
            if free:
                # Recycle a slot swept by gc() instead of growing the
                # parallel lists — long sweeps run in flat memory.
                index = free.pop()
                self._level[index] = level
                self._high[index] = high
                self._low[index] = low
            else:
                index = len(self._level)
                self._level.append(level)
                self._high.append(high)
                self._low.append(low)
                if index >= self._peak_nodes:
                    self._peak_nodes = index + 1
            self._unique[key] = index
            self._nodes_created += 1
            self._last_created = index
            # Node creation is a governed resource; the hook may raise a
            # BudgetExceeded.  The node itself is complete and canonical
            # at this point, so the table stays consistent either way.
            hook = self._step_hook
            if hook is not None:
                hook(EVENT_NODE)
        return index << 1

    @property
    def last_created_ref(self) -> int:
        """Regular ref of the most recently created node.

        Free-list recycling means the newest node is *not* necessarily
        the one at the highest index; audit hooks reacting to
        :data:`EVENT_NODE` must use this instead of ``num_nodes - 1``.
        """
        return self._last_created << 1

    def level(self, ref: int) -> int:
        """Level of the node a ref points to (terminal: TERMINAL_LEVEL)."""
        return self._level[ref >> 1]

    def is_constant(self, ref: int) -> bool:
        """True iff ``ref`` is ONE or ZERO."""
        return ref >> 1 == 0

    def regular(self, ref: int) -> int:
        """The ref with its complement bit cleared."""
        return ref & ~1

    def branches(self, ref: int, level: int) -> Tuple[int, int]:
        """Cofactors of ``ref`` with respect to the variable at ``level``.

        Returns ``(then, else)``.  If the node is rooted strictly below
        ``level`` the function does not depend on that variable and both
        cofactors equal ``ref`` — this mirrors ``bdd_get_branches`` in
        the paper's Figure 2.
        """
        index = ref >> 1
        if self._level[index] != level:
            return ref, ref
        complement = ref & 1
        return self._high[index] ^ complement, self._low[index] ^ complement

    def top_branches(self, ref: int) -> Tuple[int, int, int]:
        """``(level, then, else)`` at the root of a non-constant ref."""
        index = ref >> 1
        complement = ref & 1
        return (
            self._level[index],
            self._high[index] ^ complement,
            self._low[index] ^ complement,
        )

    @property
    def num_nodes(self) -> int:
        """Size of the node table, including the terminal and any swept
        slots awaiting reuse on the free list.  Grows monotonically
        except under a compacting :meth:`gc`, which rebuilds the table
        dense."""
        return len(self._level)

    # ------------------------------------------------------------------
    # Caches
    # ------------------------------------------------------------------
    def cache(self, name: str) -> dict:
        """A named computed-table cache, flushed by :meth:`clear_caches`.

        The paper invokes the garbage collector before each heuristic to
        flush caches so runtimes are comparable; library code uses named
        caches so the experiment harness can do the same.
        """
        cache = self._op_caches.get(name)
        if cache is None:
            cache = _CountingCache()
            if self._metrics is not None:
                cache.start_counting()
            self._op_caches[name] = cache
        return cache

    def clear_caches(self) -> None:
        """Flush every computed table (the unique table is kept).

        An installed step hook is notified with :data:`EVENT_CLEAR` so a
        resource governor can reset its counters in lockstep — the
        paper's §4.1.1 fairness protocol flushes caches between
        heuristics, and per-heuristic budgets must restart with them.
        :meth:`gc` calls this before sweeping, since every computed
        table may hold refs to nodes about to be reclaimed.
        """
        self._ite_cache.clear()
        for cache in self._op_caches.values():
            cache.clear()
        self._level_set_ids.clear()
        hook = self._step_hook
        if hook is not None:
            hook(EVENT_CLEAR)

    # ------------------------------------------------------------------
    # Resource governing
    # ------------------------------------------------------------------
    def install_step_hook(
        self, hook: Optional[Callable[[str], None]]
    ) -> Optional[Callable[[str], None]]:
        """Install a step hook; returns the previously installed one.

        The hook is called with :data:`EVENT_NODE` for every node
        created in the unique table, :data:`EVENT_ITE` for every ITE
        recursion step and every state :meth:`agree` (hence
        :meth:`leq`) expands, and :data:`EVENT_CLEAR` when the computed
        tables are flushed.  A hook may raise
        :class:`repro.analysis.errors.BudgetExceeded` to abort the
        in-flight operation; all manager state (unique table, caches)
        remains consistent afterwards because results are only cached
        once fully computed.

        Pass ``None`` to uninstall.  The conventional pattern restores
        the previous hook on exit::

            previous = manager.install_step_hook(governor)
            try:
                ...
            finally:
                manager.install_step_hook(previous)
        """
        previous = self._step_hook
        self._step_hook = hook
        return previous

    @property
    def step_hook(self) -> Optional[Callable[[str], None]]:
        """The currently installed step hook (None when ungoverned)."""
        return self._step_hook

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def protect(self, ref: int) -> int:
        """Pin ``ref`` across :meth:`gc` sweeps; returns ``ref``.

        Protection is refcounted: each ``protect`` needs a matching
        :meth:`unprotect`.  Protected refs are implicit gc roots, and a
        compacting collection remaps them in place.
        """
        self._protected[ref] = self._protected.get(ref, 0) + 1
        return ref

    def unprotect(self, ref: int) -> None:
        """Drop one protection of ``ref`` (see :meth:`protect`).

        Raises :class:`ValueError` if ``ref`` is not currently
        protected — an unbalanced unprotect is always a caller bug.
        """
        count = self._protected.get(ref)
        if count is None:
            raise ValueError("ref %d is not protected" % ref)
        if count == 1:
            del self._protected[ref]
        else:
            self._protected[ref] = count - 1

    def protected_refs(self) -> Tuple[int, ...]:
        """The currently protected refs (once each, whatever the count)."""
        return tuple(self._protected)

    @property
    def gc_generation(self) -> int:
        """Number of compacting collections run so far.

        Every ``gc(compact=True)`` invalidates all outstanding refs and
        bumps this epoch; a ref minted under an older epoch must be
        translated through that collection's :class:`Remap` before it
        is used again.  ``REPRO_SANITIZE=1``
        (:mod:`repro.analysis.sanitize`) enforces this dynamically.
        """
        return self._gc_generation

    @contextmanager
    def protecting(self, *refs: int) -> Iterator[None]:
        """Protect ``refs`` for the duration of a ``with`` block.

        Not compaction-safe: a compacting :meth:`gc` inside the block
        remaps the protected table, so the exit unprotect would miss.
        Use explicit :meth:`protect`/:meth:`unprotect` around
        ``gc(compact=True)`` instead.
        """
        for ref in refs:
            self.protect(ref)
        try:
            yield
        finally:
            for ref in refs:
                self.unprotect(ref)

    def gc(
        self, roots: Iterable[int] = (), compact: bool = False
    ) -> Optional[Remap]:
        """Mark-and-sweep collection of nodes unreachable from the roots.

        Marks every node reachable from ``roots`` and the
        :meth:`protect`-ed refs, flushes all computed tables (they may
        hold dead refs; the step hook sees :data:`EVENT_CLEAR`, so a
        governor's budget restarts — gc points are the §4.1.1 fairness
        flush points), and sweeps dead nodes out of the unique table
        onto a free list that ``_make_raw`` recycles.  Refs to swept
        nodes are invalidated; refs to surviving nodes stay canonical.

        With ``compact=True`` the parallel node lists are additionally
        rebuilt dense (memory is actually released) and **every**
        outstanding ref is invalidated; the returned :class:`Remap`
        translates old refs of surviving nodes, and the protected table
        is remapped automatically.  Returns ``None`` when not
        compacting.  Must not be called from inside a running operation
        (e.g. from a step hook).

        A non-compacting collection whose full root tuple (``roots``
        then the protected refs) equals the last non-compacting one's,
        with no compaction in between, marks nothing: the roots reach
        exactly the nodes that sweep kept, so every node created since
        — the unique table's tail, which keeps insertion order — is
        dead.  Popping that tail leaves the same table, free list and
        counters as the full mark would.
        """
        from repro.obs import trace as obs_trace

        root_refs = tuple(roots) + tuple(self._protected)
        with obs_trace.span(
            "manager.gc", roots=len(root_refs), compact=compact
        ):
            unique = self._unique
            repeat = not compact and root_refs == self._swept_roots
            if not repeat:
                marked = self.nodes_reachable(root_refs)
                marked.add(0)
            self.clear_caches()
            remap = None
            if repeat:
                tail = [
                    unique.popitem()[1]
                    for _ in range(len(unique) - self._swept_live)
                ]
                tail.reverse()
                self._free.extend(tail)
                reclaimed = len(tail)
            elif compact:
                remap, reclaimed = self._compact(marked)
                self._gc_generation += 1
            else:
                reclaimed = 0
                free = self._free
                for key, index in list(unique.items()):
                    if index not in marked:
                        del unique[key]
                        free.append(index)
                        reclaimed += 1
            if compact:
                self._swept_roots = None
            else:
                self._swept_roots = root_refs
                self._swept_live = len(self._unique)
            self._gc_runs += 1
            self._nodes_reclaimed += reclaimed
        return remap

    def _compact(self, marked: Set[int]) -> Tuple[Remap, int]:
        """Rebuild the parallel lists dense over ``marked`` indices."""
        old_count = len(self._level)
        order = sorted(marked)
        index_map = {old: new for new, old in enumerate(order)}
        old_level, old_high, old_low = self._level, self._high, self._low
        new_level: List[int] = []
        new_high: List[int] = []
        new_low: List[int] = []
        for old_index in order:
            new_level.append(old_level[old_index])
            high = old_high[old_index]
            low = old_low[old_index]
            new_high.append((index_map[high >> 1] << 1) | (high & 1))
            new_low.append((index_map[low >> 1] << 1) | (low & 1))
        self._level, self._high, self._low = new_level, new_high, new_low
        self._unique = {
            (new_level[i], new_high[i], new_low[i]): i
            for i in range(1, len(order))
        }
        self._free = []
        self._last_created = 0
        remap = Remap(index_map)
        self._protected = {
            remap(ref): count for ref, count in self._protected.items()
        }
        return remap, old_count - len(order)

    def validate(self, refs: Union[int, Iterable[int]]) -> None:
        """Check structural invariants of one or several BDDs.

        ``refs`` is a single ref or an iterable of refs (so
        ``validate((f, c, g))`` audits a whole instance in one reachable
        sweep).  Checks, for every reachable node: the variable order is
        strict along both edges, the then-edge is regular, children
        differ, and the node is the unique-table representative of its
        key.  Raises :class:`repro.analysis.errors.InvariantError` with
        a description on violation — unconditionally, unlike a bare
        ``assert``, so the check also holds under ``python -O``.
        """
        if isinstance(refs, int):
            refs = (refs,)
        for index in self.nodes_reachable(refs):
            if index == 0:
                continue
            level = self._level[index]
            high = self._high[index]
            low = self._low[index]
            if high == low:
                raise InvariantError("node %d has equal children" % index)
            if high & 1:
                raise InvariantError(
                    "node %d has a complemented then-edge" % index
                )
            if self._level[high >> 1] <= level:
                raise InvariantError(
                    "node %d: then-edge does not descend" % index
                )
            if self._level[low >> 1] <= level:
                raise InvariantError(
                    "node %d: else-edge does not descend" % index
                )
            if self._unique.get((level, high, low)) != index:
                raise InvariantError(
                    "node %d is not its unique-table representative" % index
                )

    def statistics(self) -> Dict[str, int]:
        """Bookkeeping counters: sizes plus cumulative operation counts.

        The first four keys (``num_vars``/``num_nodes``/``unique_table``
        /``ite_cache``) and the per-cache ``cache_<name>`` sizes are the
        original point-in-time readings and keep their exact meaning.
        The cumulative counters (``ite_calls``, ``ite_cache_hits``,
        ``ite_cache_misses``, ``nodes_created``, ``peak_nodes``,
        ``gc_runs``, ``nodes_reclaimed``, ``agree_steps``) count since
        manager creation and survive :meth:`clear_caches` —
        per-heuristic deltas are taken with
        :func:`repro.obs.metrics.diff_statistics`.
        ``live_nodes`` counts allocated nodes (terminal included) and
        ``free_list`` the swept slots awaiting reuse; their sum is
        ``num_nodes`` between collections.  When a metrics registry is
        attached, each named cache additionally reports
        ``cache_<name>_hits``/``_misses`` (reset on flush).
        """
        stats = {
            "num_vars": len(self._var_names),
            "num_nodes": len(self._level),
            "unique_table": len(self._unique),
            "ite_cache": len(self._ite_cache),
            "ite_calls": self._ite_calls,
            "ite_cache_hits": self._ite_hits,
            "ite_cache_misses": self._ite_misses,
            "nodes_created": self._nodes_created,
            "peak_nodes": self._peak_nodes,
            "live_nodes": len(self._unique) + 1,
            "free_list": len(self._free),
            "gc_runs": self._gc_runs,
            "nodes_reclaimed": self._nodes_reclaimed,
            "agree_steps": self._agree_steps,
        }
        counting = self._metrics is not None
        for name, cache in sorted(self._op_caches.items()):
            stats["cache_" + name] = len(cache)
            if counting and isinstance(cache, _CountingCache):
                stats["cache_" + name + "_hits"] = cache.hits
                stats["cache_" + name + "_misses"] = cache.misses
        return stats

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def metrics(self):
        """The attached metrics registry, or ``None`` (not collecting)."""
        return self._metrics

    def attach_metrics(self, registry=None):
        """Start collecting per-cache hit/miss counts into ``registry``.

        ``registry`` is a :class:`repro.obs.metrics.MetricsRegistry`
        (the process-global active one by default).  Counting starts on
        every existing named cache *in place* — handles fetched via
        :meth:`cache` before the attach stay the live objects — and
        :meth:`detach_metrics` later folds the statistics delta
        accumulated while attached into the registry under
        ``manager.*`` names.  Returns the registry.  Attaching twice
        raises — the baseline snapshot would silently be lost.
        """
        if self._metrics is not None:
            raise ValueError(
                "a metrics registry is already attached; detach it first"
            )
        if registry is None:
            from repro.obs import metrics as _obs_metrics

            registry = _obs_metrics.active()
            if registry is None:
                registry = _obs_metrics.MetricsRegistry()
        self._metrics = registry
        for name, cache in self._op_caches.items():
            if not isinstance(cache, _CountingCache):
                # Defensive: a foreign plain dict (subclass injection)
                # is upgraded by copy, the legacy path.
                counting = _CountingCache()
                counting.update(cache)
                self._op_caches[name] = counting
                cache = counting
            cache.start_counting()
        self._metrics_baseline = self.statistics()
        return registry

    def detach_metrics(self):
        """Stop collecting; publish the delta and return the registry.

        The difference between the current :meth:`statistics` and the
        snapshot taken at attach time is folded into the registry:
        cumulative counters as ``manager.<key>`` counter increments,
        sizes and peaks as high-watermark gauges.  Cache counting stops
        in place (contents and object identity kept), so a detached
        manager is indistinguishable from one never attached.
        """
        registry = self._metrics
        if registry is None:
            return None
        from repro.obs import metrics as _obs_metrics

        delta = _obs_metrics.diff_statistics(
            self._metrics_baseline or {}, self.statistics()
        )
        for name, value in delta.items():
            if (
                name in _obs_metrics.CUMULATIVE_STATISTICS
                or name.endswith(("_hits", "_misses"))
            ):
                registry.inc("manager." + name, value)
            else:
                registry.max_gauge("manager." + name, value)
        self._metrics = None
        self._metrics_baseline = None
        for cache in self._op_caches.values():
            if isinstance(cache, _CountingCache):
                cache.stop_counting()
        return registry

    # ------------------------------------------------------------------
    # The ITE core
    # ------------------------------------------------------------------
    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f·g + ¬f·h``, the universal binary operator.

        Runs as an iterative explicit-stack kernel.  The triple under
        evaluation lives in locals ("registers"): it is normalized,
        probed against the computed table, and on a miss the kernel
        pushes a reduce frame plus the else-cofactor triple, then
        continues straight into the then-cofactor without touching the
        stack.  A finished result unwinds the stack: popping an apply
        frame resumes the pending else-triple, popping a reduce frame
        builds and caches the node.  Triples are evaluated in exactly
        the recursive post-order, so step-hook event sequences (and
        therefore budget trips and fault-injection schedules) are
        unchanged — but depth is heap-bounded, independent of the
        interpreter recursion limit.
        """
        level_list = self._level
        high_list = self._high
        low_list = self._low
        ite_cache = self._ite_cache
        ite_cache_get = ite_cache.get
        make_node = self.make_node
        # Frames: (True, top, key, oc) reduce | (False, f, g, h) apply.
        tasks: List[tuple] = []
        push = tasks.append
        pop = tasks.pop
        # Completed then-results awaiting their sibling else-results.
        then_results: List[int] = []
        then_push = then_results.append
        then_pop = then_results.pop
        calls = hits = misses = 0
        try:
            while True:
                calls += 1
                # Read per step: hooks may be (de)installed mid-kernel.
                hook = self._step_hook
                if hook is not None:
                    hook(EVENT_ITE)
                # Normalize so the condition is regular.
                if f & 1:
                    f ^= 1
                    g, h = h, g
                # Terminal cases.
                if f == ONE:
                    result = g
                elif g == h:
                    result = g
                elif g == ONE and h == ZERO:
                    result = f
                elif g == ZERO and h == ONE:
                    result = f ^ 1
                else:
                    # Absorb the condition into equal/complement
                    # branches.
                    if g == f:
                        g = ONE
                    elif g == (f ^ 1):
                        g = ZERO
                    if h == f:
                        h = ZERO
                    elif h == (f ^ 1):
                        h = ONE
                    if g == ONE and h == ZERO:
                        result = f
                    elif g == ZERO and h == ONE:
                        result = f ^ 1
                    elif g == h:
                        result = g
                    else:
                        # Canonicalize commutable triples for more
                        # cache hits.
                        if g == ONE:
                            if h > f:
                                f, h = h, f
                        elif g == ZERO:
                            if (h ^ 1) > f:
                                f, h = h ^ 1, f ^ 1
                        elif h == ONE:
                            if (g ^ 1) > f:
                                f, g = g ^ 1, f ^ 1
                        elif h == ZERO:
                            if g > f:
                                f, g = g, f
                        elif g == (h ^ 1):
                            if g > f:
                                f, g = g, f
                                h = g ^ 1
                        # Normalize so the then-branch is regular
                        # (complement the output).
                        output_complement = g & 1
                        if output_complement:
                            g ^= 1
                            h ^= 1
                        key = (f, g, h)
                        cached = ite_cache_get(key)
                        if cached is not None:
                            hits += 1
                            result = cached ^ output_complement
                        else:
                            misses += 1
                            f_index = f >> 1
                            g_index = g >> 1
                            h_index = h >> 1
                            top = level_list[f_index]
                            level_g = level_list[g_index]
                            if level_g < top:
                                top = level_g
                            level_h = level_list[h_index]
                            if level_h < top:
                                top = level_h
                            if level_list[f_index] != top:
                                f_then = f_else = f
                            else:
                                complement = f & 1
                                f_then = high_list[f_index] ^ complement
                                f_else = low_list[f_index] ^ complement
                            if level_list[g_index] != top:
                                g_then = g_else = g
                            else:
                                complement = g & 1
                                g_then = high_list[g_index] ^ complement
                                g_else = low_list[g_index] ^ complement
                            if level_list[h_index] != top:
                                h_then = h_else = h
                            else:
                                complement = h & 1
                                h_then = high_list[h_index] ^ complement
                                h_else = low_list[h_index] ^ complement
                            push((True, top, key, output_complement))
                            push((False, f_else, g_else, h_else))
                            f, g, h = f_then, g_then, h_then
                            continue
                # ``result`` is complete: unwind reduce frames, then
                # resume the innermost pending else-triple (if any).
                while True:
                    if not tasks:
                        return result
                    frame = pop()
                    if frame[0]:
                        _, top, key, output_complement = frame
                        node = make_node(top, then_pop(), result)
                        ite_cache[key] = node
                        result = node ^ output_complement
                    else:
                        then_push(result)
                        _, f, g, h = frame
                        break
        finally:
            # Counters survive a mid-kernel budget abort: a journalled
            # cell that fell back still reports the work it burned.
            self._ite_calls += calls
            self._ite_hits += hits
            self._ite_misses += misses

    # ------------------------------------------------------------------
    # Boolean connectives
    # ------------------------------------------------------------------
    def not_(self, f: int) -> int:
        """Complement (free with complement edges)."""
        return f ^ 1

    def and_(self, f: int, g: int) -> int:
        """Conjunction."""
        return self.ite(f, g, ZERO)

    def or_(self, f: int, g: int) -> int:
        """Disjunction."""
        return self.ite(f, ONE, g)

    def xor(self, f: int, g: int) -> int:
        """Exclusive or."""
        return self.ite(f, g ^ 1, g)

    def xnor(self, f: int, g: int) -> int:
        """Equivalence (biconditional)."""
        return self.ite(f, g, g ^ 1)

    def implies(self, f: int, g: int) -> int:
        """Implication ``f → g``."""
        return self.ite(f, g, ONE)

    def diff(self, f: int, g: int) -> int:
        """Difference ``f · ¬g``."""
        return self.ite(f, g ^ 1, ZERO)

    def and_many(self, refs: Iterable[int]) -> int:
        """Conjunction of a collection of refs.

        Combined as a balanced reduction tree rather than a left fold: a
        fold drags one ever-growing accumulator through every AND, so
        intermediate BDDs peak near the final size times the term count,
        while the tree conjoins functions of similar (small) size first
        — the standard BDD-package idiom for n-ary operations.  The tree
        splits the sequence at its middle, so each half is conjoined on
        its own and the halves meet once, in the last AND.
        Short-circuits on an annihilating ZERO.
        """
        items = list(refs)
        if not items:
            return ONE
        return _reduce_span(items, 0, len(items), self.and_, ZERO)

    def or_many(self, refs: Iterable[int]) -> int:
        """Disjunction of a collection of refs.

        Balanced reduction; see :meth:`and_many`.
        Short-circuits on an annihilating ONE.
        """
        items = list(refs)
        if not items:
            return ZERO
        return _reduce_span(items, 0, len(items), self.or_, ONE)

    def leq(self, f: int, g: int) -> bool:
        """Containment test: ``f ≤ g`` (f implies g); builds no node.

        ``f ≤ g`` iff g agrees with ONE wherever f holds, so this is
        ``agree(g, ONE, f)`` (CUDD's ``Cudd_bddLeq``), a three-operand
        walk.
        """
        return self.agree(g, ONE, f)

    def agree(self, f: int, g: int, c: int, d: int = ONE) -> bool:
        """Do ``f`` and ``g`` agree wherever ``c·d`` holds?

        Decides ``(f ⊕ g)·c·d = 0`` (CUDD's ``Cudd_EquivDC``, with a
        second care operand) without creating a node: a depth-first
        walk over the cofactors that stops at the first care minterm
        where f and g differ.  Each state it expands fires
        :data:`EVENT_ITE` and counts in ``agree_steps``, so step
        budgets, deadlines and fault schedules see the work.

        The root state is normalized and decided by the terminal rules
        or the memo before any walk state exists; most calls end there.
        A root whose care pair normalizes to ``d = ONE`` (every ``leq``
        and Definition 2 cover check, and one-care calls in general)
        keeps ``d = ONE`` in every state below it, so it takes a
        three-operand walk that never reads ``d``.  Both walks expand
        the same states in the same order, the then-state first.

        The memo is the named cache ``"agree"`` (flushed with every
        other computed table), keyed by normalized ``(f, g, c, d)``
        states that both walks share; the ITE table is never read.
        Entries are written only once a walk finishes — every expanded
        state on a clean agreement, the root alone on a disagreement —
        so a hook that aborts a walk leaves none behind.
        """
        memo = self._op_caches.get("agree")
        if memo is None:
            memo = self.cache("agree")
        if f == g or c == ZERO or d == ZERO:
            return True
        if d != ONE:
            # Normalize the care pair: d is ONE unless both are proper
            # and distinct, and then c > d.
            if c == d:
                d = ONE
            elif c == (d ^ 1):
                return True
            elif c == ONE:
                c, d = d, ONE
            elif c < d:
                c, d = d, c
        if c == ONE:
            # Every minterm is cared for, and f != g.
            return False
        # Normalize the pair: f < g with f regular (f ⊕ g = ¬f ⊕ ¬g).
        if f > g:
            f, g = g, f
        if f & 1:
            f ^= 1
            g ^= 1
        if f == ONE and (g == c or g == d):
            # The disagreement is ¬g, outside the care set.
            return True
        if f == (g ^ 1) and d == ONE:
            # They differ everywhere and c is not ZERO.
            return False
        root = (f, g, c, d)
        known = memo.get(root)
        if known is not None:
            return known
        if d == ONE:
            return self._agree_walk3(memo, root)
        return self._agree_walk4(memo, root)

    def _agree_walk3(self, memo: dict, root: Tuple[int, int, int, int]) -> bool:
        """:meth:`agree`'s walk from an unseen root with ``d = ONE``.

        Every cofactor of ONE is ONE, so each state below keeps
        ``d = ONE``: the care-pair rules cannot fire and ``d``'s level
        and cofactors are never read.  States carry ``(f, g, c)`` and
        are keyed ``(f, g, c, ONE)``, the four-operand walk's key.
        """
        level_list = self._level
        high_list = self._high
        low_list = self._low
        memo_get = memo.get
        f, g, c, _ = key = root
        # States this walk expanded: all agree once it finishes clean.
        expanded: Set[Tuple[int, int, int, int]] = set()
        expand = expanded.add
        # Pending else-states; the then-state continues in locals.
        stack: List[Tuple[int, int, int]] = []
        push = stack.append
        pop = stack.pop
        steps = 0
        try:
            while True:
                # Expand (f, g, c): normalized, unseen, not memoized.
                steps += 1
                hook = self._step_hook
                if hook is not None:
                    hook(EVENT_ITE)
                expand(key)
                f_index = f >> 1
                g_index = g >> 1
                c_index = c >> 1
                f_level = level_list[f_index]
                g_level = level_list[g_index]
                c_level = level_list[c_index]
                top = f_level
                if g_level < top:
                    top = g_level
                if c_level < top:
                    top = c_level
                if f_level == top:
                    f_then = high_list[f_index]
                    f_else = low_list[f_index]
                else:
                    f_then = f_else = f
                if g_level == top:
                    complement = g & 1
                    g_then = high_list[g_index] ^ complement
                    g_else = low_list[g_index] ^ complement
                else:
                    g_then = g_else = g
                if c_level == top:
                    complement = c & 1
                    c_then = high_list[c_index] ^ complement
                    c_else = low_list[c_index] ^ complement
                else:
                    c_then = c_else = c
                push((f_else, g_else, c_else))
                f = f_then
                g = g_then
                c = c_then
                # Decide states until one needs expanding.
                while True:
                    if f != g and c != ZERO:
                        if f > g:
                            f, g = g, f
                        if f & 1:
                            f ^= 1
                            g ^= 1
                        # f == ONE and g == c: the disagreement is ¬c.
                        if f != ONE or g != c:
                            if c == ONE or f == (g ^ 1):
                                # Every minterm is cared for, or f and
                                # g differ everywhere.
                                memo[root] = False
                                return False
                            key = (f, g, c, ONE)
                            if key not in expanded:
                                known = memo_get(key)
                                if known is None:
                                    break
                                if not known:
                                    memo[root] = False
                                    return False
                    if not stack:
                        memo.update(dict.fromkeys(expanded, True))
                        return True
                    f, g, c = pop()
        finally:
            self._agree_steps += steps

    def _agree_walk4(self, memo: dict, root: Tuple[int, int, int, int]) -> bool:
        """:meth:`agree`'s walk from an unseen root with two proper cares.

        A state whose care pair normalizes to ``d = ONE`` stays in this
        walk; its key is the one the three-operand walk uses.
        """
        level_list = self._level
        high_list = self._high
        low_list = self._low
        memo_get = memo.get
        f, g, c, d = key = root
        # States this walk expanded: all agree once it finishes clean.
        expanded: Set[Tuple[int, int, int, int]] = set()
        expand = expanded.add
        # Pending else-states; the then-state continues in locals.
        stack: List[Tuple[int, int, int, int]] = []
        push = stack.append
        pop = stack.pop
        steps = 0
        try:
            while True:
                # Expand (f, g, c, d): normalized, unseen, not memoized.
                steps += 1
                hook = self._step_hook
                if hook is not None:
                    hook(EVENT_ITE)
                expand(key)
                f_index = f >> 1
                g_index = g >> 1
                c_index = c >> 1
                d_index = d >> 1
                f_level = level_list[f_index]
                g_level = level_list[g_index]
                c_level = level_list[c_index]
                d_level = level_list[d_index]
                top = f_level
                if g_level < top:
                    top = g_level
                if c_level < top:
                    top = c_level
                if d_level < top:
                    top = d_level
                if f_level == top:
                    f_then = high_list[f_index]
                    f_else = low_list[f_index]
                else:
                    f_then = f_else = f
                if g_level == top:
                    complement = g & 1
                    g_then = high_list[g_index] ^ complement
                    g_else = low_list[g_index] ^ complement
                else:
                    g_then = g_else = g
                if c_level == top:
                    complement = c & 1
                    c_then = high_list[c_index] ^ complement
                    c_else = low_list[c_index] ^ complement
                else:
                    c_then = c_else = c
                if d_level == top:
                    complement = d & 1
                    d_then = high_list[d_index] ^ complement
                    d_else = low_list[d_index] ^ complement
                else:
                    d_then = d_else = d
                push((f_else, g_else, c_else, d_else))
                f = f_then
                g = g_then
                c = c_then
                d = d_then
                # Decide states until one needs expanding.
                while True:
                    if not (
                        f == g or c == ZERO or d == ZERO or c == (d ^ 1)
                    ):
                        if c == d:
                            d = ONE
                        elif c == ONE:
                            c, d = d, ONE
                        elif c < d:
                            c, d = d, c
                        if f > g:
                            f, g = g, f
                        if f & 1:
                            f ^= 1
                            g ^= 1
                        if f != ONE or (g != c and g != d):
                            if c == ONE or (f == (g ^ 1) and d == ONE):
                                # Every minterm is cared for, or f and
                                # g differ everywhere.
                                memo[root] = False
                                return False
                            key = (f, g, c, d)
                            if key not in expanded:
                                known = memo_get(key)
                                if known is None:
                                    break
                                if not known:
                                    memo[root] = False
                                    return False
                    if not stack:
                        memo.update(dict.fromkeys(expanded, True))
                        return True
                    f, g, c, d = pop()
        finally:
            self._agree_steps += steps

    # ------------------------------------------------------------------
    # Cofactors and quantification
    # ------------------------------------------------------------------
    def cofactor(self, f: int, level: int, value: bool) -> int:
        """Cofactor of ``f`` by the literal at ``level`` set to ``value``.

        Iterative explicit-stack kernel (heap-bounded depth).
        """
        cache = self.cache("cofactor")
        value = 1 if value else 0
        level_list = self._level
        high_list = self._high
        low_list = self._low
        make_node = self.make_node
        tasks: List[tuple] = [(_APPLY, f)]
        results: List[int] = []
        while tasks:
            task = tasks.pop()
            if task[0] == _REDUCE:
                _, node_level, key = task
                else_r = results.pop()
                then_r = results.pop()
                result = make_node(node_level, then_r, else_r)
                cache[key] = result
                results.append(result)
                continue
            f = task[1]
            index = f >> 1
            node_level = level_list[index]
            if node_level > level:
                results.append(f)
                continue
            key = (f, level, value)
            cached = cache.get(key)
            if cached is not None:
                results.append(cached)
                continue
            complement = f & 1
            then_f = high_list[index] ^ complement
            else_f = low_list[index] ^ complement
            if node_level == level:
                result = then_f if value else else_f
                cache[key] = result
                results.append(result)
                continue
            tasks.append((_REDUCE, node_level, key))
            tasks.append((_APPLY, else_f))
            tasks.append((_APPLY, then_f))
        return results[-1]

    def restrict_cube(self, f: int, cube: Dict[int, bool]) -> int:
        """Cofactor ``f`` by a cube given as ``{level: value}``."""
        for level in sorted(cube):
            f = self.cofactor(f, level, cube[level])
        return f

    def exists(self, f: int, levels: Iterable[int]) -> int:
        """Existential quantification over the given variable levels.

        Memoized in ``cache("exists")`` under ``(f, set_id)``; see
        :meth:`_quantify`.
        """
        level_set = frozenset(levels)
        if not level_set:
            return f
        return self._quantify(f, level_set, self.cache("exists"), False)

    def forall(self, f: int, levels: Iterable[int]) -> int:
        """Universal quantification over the given variable levels.

        Memoized in ``cache("forall")`` under ``(f, set_id)``; see
        :meth:`_quantify`.
        """
        level_set = frozenset(levels)
        if not level_set:
            return f
        return self._quantify(f, level_set, self.cache("forall"), True)

    def _level_set_id(self, levels: frozenset) -> int:
        """The small int standing for ``levels`` in quantification memo keys.

        A memo key holding the frozenset itself can never be untracked
        by Python's cyclic collector (sets are always tracked), so every
        full collection would re-walk every entry of the quantification
        tables.  A tuple of ints is untracked at its first collection.
        The ids live until :meth:`clear_caches`, which flushes every
        entry that uses them.
        """
        ids = self._level_set_ids
        set_id = ids.get(levels)
        if set_id is None:
            set_id = ids[levels] = len(ids)
        return set_id

    def _quantify(
        self, f: int, levels: frozenset, cache: dict, conjunctive: bool
    ) -> int:
        """Iterative quantification kernel shared by exists/forall.

        The combine step calls :meth:`and_`/:meth:`or_`, itself the
        heap-bounded ITE kernel, so the whole operation runs under the
        default interpreter recursion limit at any depth.  Memo keys are
        ``(f, set_id)`` with ``set_id`` from :meth:`_level_set_id`; the
        exists and forall tables are separate, so the key needs no
        polarity.
        """
        set_id = self._level_set_id(levels)
        deepest = max(levels)
        combine = self.and_ if conjunctive else self.or_
        level_list = self._level
        high_list = self._high
        low_list = self._low
        make_node = self.make_node
        tasks: List[tuple] = [(_APPLY, f)]
        results: List[int] = []
        while tasks:
            task = tasks.pop()
            if task[0] == _REDUCE:
                _, node_level, key = task
                else_r = results.pop()
                then_r = results.pop()
                if node_level in levels:
                    result = combine(then_r, else_r)
                else:
                    result = make_node(node_level, then_r, else_r)
                cache[key] = result
                results.append(result)
                continue
            f = task[1]
            index = f >> 1
            node_level = level_list[index]
            # The terminal sits at TERMINAL_LEVEL > deepest, so this
            # also covers the constant case.
            if node_level > deepest:
                results.append(f)
                continue
            key = (f, set_id)
            cached = cache.get(key)
            if cached is not None:
                results.append(cached)
                continue
            complement = f & 1
            tasks.append((_REDUCE, node_level, key))
            tasks.append((_APPLY, low_list[index] ^ complement))
            tasks.append((_APPLY, high_list[index] ^ complement))
        return results[-1]

    def and_exists(self, f: int, g: int, levels: Iterable[int]) -> int:
        """Relational product ``∃ levels. f · g`` without the full AND.

        The workhorse of image computation: quantification is interleaved
        with the conjunction so intermediate BDDs stay small.  Memoized
        in ``cache("and_exists")`` under ``(f, g, set_id)`` with
        ``f <= g``; ``set_id`` is the level set's interned int (see
        :meth:`_level_set_id`), as in CUDD's ``Cudd_bddAndAbstract``,
        whose cache key holds the cube's pointer rather than the cube.
        """
        level_set = frozenset(levels)
        return self._and_exists(f, g, level_set, self.cache("and_exists"))

    def _and_exists(self, f: int, g: int, levels: frozenset, cache: dict) -> int:
        """Iterative relational-product kernel.

        Three frame kinds: ``_APPLY`` expands a pair, ``_AFTER_THEN``
        inspects the then-result first — preserving the recursive
        version's short-circuit that skips the else-branch entirely
        when an existentially quantified level already produced ONE —
        and ``_COMBINE`` merges both child results.
        """
        set_id = self._level_set_id(levels)
        level_list = self._level
        high_list = self._high
        low_list = self._low
        make_node = self.make_node
        tasks: List[tuple] = [(_APPLY, f, g)]
        results: List[int] = []
        while tasks:
            task = tasks.pop()
            tag = task[0]
            if tag == _APPLY:
                _, f, g = task
                if f == ZERO or g == ZERO:
                    results.append(ZERO)
                    continue
                if f == ONE and g == ONE:
                    results.append(ONE)
                    continue
                if f == ONE:
                    results.append(self.exists(g, levels) if levels else g)
                    continue
                if g == ONE:
                    results.append(self.exists(f, levels) if levels else f)
                    continue
                if f == (g ^ 1):
                    results.append(ZERO)
                    continue
                if f == g:
                    results.append(self.exists(f, levels))
                    continue
                if f > g:
                    f, g = g, f
                key = (f, g, set_id)
                cached = cache.get(key)
                if cached is not None:
                    results.append(cached)
                    continue
                f_index = f >> 1
                g_index = g >> 1
                top = level_list[f_index]
                level_g = level_list[g_index]
                if level_g < top:
                    top = level_g
                if level_list[f_index] != top:
                    f_then = f_else = f
                else:
                    complement = f & 1
                    f_then = high_list[f_index] ^ complement
                    f_else = low_list[f_index] ^ complement
                if level_list[g_index] != top:
                    g_then = g_else = g
                else:
                    complement = g & 1
                    g_then = high_list[g_index] ^ complement
                    g_else = low_list[g_index] ^ complement
                tasks.append((_AFTER_THEN, f_else, g_else, top, key))
                tasks.append((_APPLY, f_then, g_then))
            elif tag == _AFTER_THEN:
                _, f_else, g_else, top, key = task
                then_r = results.pop()
                if top in levels and then_r == ONE:
                    cache[key] = ONE
                    results.append(ONE)
                    continue
                tasks.append((_COMBINE, top, key, then_r))
                tasks.append((_APPLY, f_else, g_else))
            else:  # _COMBINE
                _, top, key, then_r = task
                else_r = results.pop()
                if top in levels:
                    result = self.or_(then_r, else_r)
                else:
                    result = make_node(top, then_r, else_r)
                cache[key] = result
                results.append(result)
        return results[-1]

    # ------------------------------------------------------------------
    # Composition and renaming
    # ------------------------------------------------------------------
    def compose(self, f: int, level: int, g: int) -> int:
        """Substitute function ``g`` for the variable at ``level`` in ``f``."""
        return self.vector_compose(f, {level: g})

    def vector_compose(self, f: int, mapping: Dict[int, int]) -> int:
        """Simultaneously substitute functions for variables.

        ``mapping`` is ``{level: replacement_ref}``.  Substitution is
        simultaneous, not sequential.
        """
        if not mapping:
            return f
        return self._vector_compose(f, dict(mapping), {})

    def _vector_compose(
        self, f: int, mapping: Dict[int, int], cache: dict
    ) -> int:
        """Iterative composition kernel (per-call cache keyed by ref)."""
        level_list = self._level
        high_list = self._high
        low_list = self._low
        tasks: List[tuple] = [(_APPLY, f)]
        results: List[int] = []
        while tasks:
            task = tasks.pop()
            if task[0] == _REDUCE:
                _, f, top = task
                else_r = results.pop()
                then_r = results.pop()
                replacement = mapping.get(top)
                if replacement is None:
                    replacement = self.make_node(top, ONE, ZERO)
                result = self.ite(replacement, then_r, else_r)
                cache[f] = result
                results.append(result)
                continue
            f = task[1]
            index = f >> 1
            if level_list[index] == TERMINAL_LEVEL:
                results.append(f)
                continue
            cached = cache.get(f)
            if cached is not None:
                results.append(cached)
                continue
            complement = f & 1
            tasks.append((_REDUCE, f, level_list[index]))
            tasks.append((_APPLY, low_list[index] ^ complement))
            tasks.append((_APPLY, high_list[index] ^ complement))
        return results[-1]

    def rename(self, f: int, mapping: Dict[int, int]) -> int:
        """Rename variables: ``mapping`` is ``{old_level: new_level}``."""
        return self.vector_compose(
            f, {old: self.make_node(new, ONE, ZERO) for old, new in mapping.items()}
        )

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def size(self, ref: int) -> int:
        """Number of BDD nodes, including the terminal (the paper's |f|)."""
        return len(self.nodes_reachable((ref,)))

    def size_multi(self, refs: Iterable[int]) -> int:
        """Nodes in the shared DAG of several functions (terminal once)."""
        return len(self.nodes_reachable(refs))

    def nodes_reachable(self, refs: Iterable[int]) -> Set[int]:
        """Set of node indices reachable from the given refs."""
        seen: Set[int] = set()
        stack = [ref >> 1 for ref in refs]
        while stack:
            index = stack.pop()
            if index in seen:
                continue
            seen.add(index)
            if index:
                stack.append(self._high[index] >> 1)
                stack.append(self._low[index] >> 1)
        return seen

    def support(self, ref: int) -> Set[int]:
        """Set of variable levels the function depends on."""
        levels: Set[int] = set()
        for index in self.nodes_reachable((ref,)):
            if index:
                levels.add(self._level[index])
        return levels

    def support_multi(self, refs: Iterable[int]) -> Set[int]:
        """Union of the supports of several functions."""
        levels: Set[int] = set()
        for index in self.nodes_reachable(refs):
            if index:
                levels.add(self._level[index])
        return levels

    def nodes_below(self, ref: int, level: int) -> int:
        """Number of reachable nodes rooted strictly below ``level``.

        This is the paper's ``N_i(g)`` (Definition 11): nodes whose
        variable level is ``> level``, plus the terminal.
        """
        count = 0
        for index in self.nodes_reachable((ref,)):
            if self._level[index] > level:
                count += 1
        return count

    def level_profile(self, ref: int) -> Dict[int, int]:
        """Histogram ``{level: node_count}`` (terminal under TERMINAL_LEVEL)."""
        profile: Dict[int, int] = {}
        for index in self.nodes_reachable((ref,)):
            level = self._level[index]
            profile[level] = profile.get(level, 0) + 1
        return profile

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def eval(self, ref: int, assignment: Dict[int, bool]) -> bool:
        """Evaluate under ``{level: value}``; all support vars required."""
        while ref >> 1:
            level, then_f, else_f = self.top_branches(ref)
            ref = then_f if assignment[level] else else_f
        return ref == ONE

    def sat_count(self, ref: int, num_levels: Optional[int] = None) -> int:
        """Number of satisfying assignments over ``num_levels`` variables.

        Defaults to the number of declared variables.
        """
        if num_levels is None:
            num_levels = len(self._var_names)
        total = 1 << num_levels
        high_list = self._high
        low_list = self._low
        # Post-order over *regular* refs: counts[r] is the onset count
        # of the regular function at r; a complemented edge reads as
        # total - counts[child].  Iterative two-visit DFS, heap-bounded.
        counts: Dict[int, int] = {}
        stack = [ref & ~1]
        while stack:
            r = stack[-1]
            if r == ONE or r in counts:
                stack.pop()
                continue
            index = r >> 1
            then_f = high_list[index]
            else_f = low_list[index]
            then_reg = then_f & ~1
            else_reg = else_f & ~1
            missing = False
            if then_reg != ONE and then_reg not in counts:
                stack.append(then_reg)
                missing = True
            if else_reg != ONE and else_reg not in counts:
                stack.append(else_reg)
                missing = True
            if missing:
                continue
            then_count = total if then_reg == ONE else counts[then_reg]
            if then_f & 1:
                then_count = total - then_count
            else_count = total if else_reg == ONE else counts[else_reg]
            if else_f & 1:
                else_count = total - else_count
            counts[r] = (then_count + else_count) >> 1
            stack.pop()
        regular = ref & ~1
        result = total if regular == ONE else counts[regular]
        if ref & 1:
            result = total - result
        return result

    def pick_cube(self, ref: int) -> Optional[Dict[int, bool]]:
        """One satisfying cube as ``{level: value}`` or None if ZERO."""
        if ref == ZERO:
            return None
        cube: Dict[int, bool] = {}
        while ref >> 1:
            level, then_f, else_f = self.top_branches(ref)
            if else_f != ZERO:
                cube[level] = False
                ref = else_f
            else:
                cube[level] = True
                ref = then_f
        return cube

    def cubes(self, ref: int, limit: Optional[int] = None) -> Iterator[Dict[int, bool]]:
        """Iterate cubes (paths to the 1 terminal) in depth-first order.

        Each cube is ``{level: value}`` mentioning only the variables on
        the path — exactly the cube enumeration the paper uses for its
        lower-bound computation (§4.1.1).  ``limit`` caps the count.

        Enumeration is lazy and iterative: the DFS position lives in an
        explicit phase stack, so path length (like everything else in
        the kernel layer) is not bounded by the interpreter recursion
        limit.  Visit order matches the old recursive walk: the else
        branch before the then branch.
        """
        emitted = 0
        path: Dict[int, bool] = {}
        # Frames: (ref, phase) with phase 0 = enter, 1 = else branch
        # done (descend then), 2 = both done (pop the path literal).
        stack: List[Tuple[int, int]] = [(ref, 0)]
        while stack:
            r, phase = stack.pop()
            if phase == 0:
                if r == ZERO:
                    continue
                if r == ONE:
                    emitted += 1
                    yield dict(path)
                    if limit is not None and emitted >= limit:
                        return
                    continue
                level, _, else_f = self.top_branches(r)
                path[level] = False
                stack.append((r, 1))
                stack.append((else_f, 0))
            elif phase == 1:
                level, then_f, _ = self.top_branches(r)
                path[level] = True
                stack.append((r, 2))
                stack.append((then_f, 0))
            else:
                del path[self.top_branches(r)[0]]

    def cube_ref(self, cube: Dict[int, bool]) -> int:
        """Build the BDD of a cube given as ``{level: value}``."""
        result = ONE
        for level in sorted(cube, reverse=True):
            if cube[level]:
                result = self.make_node(level, result, ZERO)
            else:
                result = self.make_node(level, ZERO, result)
        return result

    def is_cube(self, ref: int) -> bool:
        """True iff the function is a single cube (product of literals)."""
        if ref == ZERO:
            return False
        while ref >> 1:
            _, then_f, else_f = self.top_branches(ref)
            if then_f == ZERO:
                ref = else_f
            elif else_f == ZERO:
                ref = then_f
            else:
                return False
        return True

    def minterms(self, ref: int, levels: Sequence[int]) -> Iterator[Tuple[bool, ...]]:
        """Iterate full minterms of ``ref`` over the given variable levels."""
        level_list = list(levels)

        def expand(cube: Dict[int, bool], position: int) -> Iterator[Tuple[bool, ...]]:
            if position == len(level_list):
                yield tuple(cube[level] for level in level_list)
                return
            level = level_list[position]
            if level in cube:
                yield from expand(cube, position + 1)
            else:
                for value in (False, True):
                    cube[level] = value
                    yield from expand(cube, position + 1)
                del cube[level]

        for cube in self.cubes(ref):
            extra = [lvl for lvl in cube if lvl not in level_list]
            if extra:
                raise ValueError(
                    "function depends on levels %s outside %s" % (extra, level_list)
                )
            yield from expand(dict(cube), 0)
