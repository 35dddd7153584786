"""Shared fixtures and hypothesis strategies for the test-suite."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

import repro.bdd.manager as manager_module
from repro.bdd.truthtable import bdd_from_leaves


def pytest_addoption(parser):
    parser.addoption(
        "--repro-check",
        action="store_true",
        default=False,
        help=(
            "swap repro.analysis.CheckedManager in for Manager so every "
            "BDD operation re-validates structural invariants"
        ),
    )


def pytest_configure(config):
    if config.getoption("--repro-check"):
        from repro.analysis.checked import install_checked_manager

        install_checked_manager()
    # REPRO_SANITIZE=1 runs the whole suite under the RefSanitizer
    # (cross-manager/stale-generation detection).  Installed after
    # --repro-check on purpose: when both are requested the sanitizer
    # wins the Manager binding (each mode has its own CI lane).
    from repro.analysis.sanitize import sanitizing_enabled

    if sanitizing_enabled():
        from repro.analysis.sanitize import install_sanitized_manager

        install_sanitized_manager()


@pytest.fixture
def manager() -> "manager_module.Manager":
    """A fresh manager with eight anonymous variables.

    Constructed through the module attribute so that ``--repro-check``
    (which rebinds it to ``CheckedManager``) is honored.
    """
    return manager_module.Manager(["x%d" % index for index in range(1, 9)])


def leaves_strategy(num_vars: int):
    """Truth tables over ``num_vars`` variables as boolean lists."""
    return st.lists(
        st.booleans(), min_size=1 << num_vars, max_size=1 << num_vars
    )


def instance_strategy(num_vars: int, nonzero_care: bool = False):
    """Random ``[f, c]`` instances as pairs of leaf lists."""
    care = leaves_strategy(num_vars)
    if nonzero_care:
        care = care.filter(lambda leaves: any(leaves))
    return st.tuples(leaves_strategy(num_vars), care)


def build_instance(manager, f_leaves, c_leaves):
    """Materialize leaf lists into ``(f, c)`` refs."""
    return (
        bdd_from_leaves(manager, f_leaves),
        bdd_from_leaves(manager, c_leaves),
    )


def count_gc_marks(manager, roots=()) -> list:
    """A list that grows by one for every reachability mark on ``manager``.

    Spies on the instance's ``nodes_reachable`` (the collector's mark)
    and counts the walks whose refs start with ``roots`` — but not
    while ``validate`` runs, so a ``CheckedManager``'s post-collection
    audit is not mistaken for a mark.
    """
    marks: list = []
    validating: list = []
    mark = manager.nodes_reachable
    validate = manager.validate
    roots = tuple(roots)

    def counted_mark(refs):
        refs = tuple(refs)
        if not validating and refs[: len(roots)] == roots:
            marks.append(1)
        return mark(refs)

    def uncounted_validate(refs):
        validating.append(1)
        try:
            return validate(refs)
        finally:
            validating.pop()

    manager.nodes_reachable = counted_mark
    manager.validate = uncounted_validate
    return marks
