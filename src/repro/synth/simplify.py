"""Netlist node simplification using observability + external DCs.

For every internal signal the global function is minimized against the
signal's full care set (observability ∧ external care) with one of the
paper's heuristics.  The minimized function is a drop-in replacement:
substituting it for the node leaves every primary output unchanged on
the external care set — which :func:`simplify_netlist` verifies for
each node before accepting the replacement (and skips replacements
that do not actually shrink, per Proposition 6).

The BDD size of each node doubles as an implementation cost under
mux-based FPGA mapping (Murgai et al., the paper's §1), so the report's
node counts are directly a cell-count estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.bdd.manager import Manager, ONE, ZERO
from repro.core.registry import get_heuristic
from repro.fsm.netlist import Netlist
from repro.synth.observability import observability_care


@dataclass
class NodeSimplification:
    """Outcome for one internal signal."""

    signal: str
    size_before: int
    size_after: int
    care_fraction: float
    replaced: bool


@dataclass
class SimplifyReport:
    """Whole-netlist summary."""

    nodes: List[NodeSimplification] = field(default_factory=list)
    functions: Dict[str, int] = field(default_factory=dict)

    @property
    def total_before(self) -> int:
        return sum(node.size_before for node in self.nodes)

    @property
    def total_after(self) -> int:
        return sum(node.size_after for node in self.nodes)

    @property
    def replaced_count(self) -> int:
        return sum(1 for node in self.nodes if node.replaced)


def simplify_netlist(
    netlist: Netlist,
    manager: Manager,
    input_refs: Dict[str, int],
    outputs: Sequence[str],
    external_care: int = ONE,
    method: str = "restrict",
    verify: bool = True,
) -> SimplifyReport:
    """Minimize every internal signal's global BDD against its DCs.

    ``input_refs`` must map every primary input to a variable ref;
    ``outputs`` names the signals whose behaviour must be preserved.
    Returns a report whose ``functions`` dictionary carries the final
    (possibly replaced) global function of each signal.
    """
    original_values = netlist.to_bdds(manager, input_refs)
    heuristic = get_heuristic(method)
    # A spare variable for the observability cut.
    cut_level = manager.level(manager.new_var("__cut%d" % manager.num_vars))
    report = SimplifyReport(functions=dict(original_values))
    output_set = set(outputs)
    total_vars_before_cut = manager.num_vars - 1
    # Replacements are applied *incrementally*: observability and
    # verification for each node run against the network with all
    # earlier replacements in place, which sidesteps the classical
    # compatibility problem of simultaneous ODCs.
    accepted: Dict[str, int] = {}
    for gate in netlist.gates:
        signal = gate.output
        current = netlist.to_bdds(manager, input_refs, overrides=accepted)
        if signal in output_set:
            # Primary outputs must be produced exactly (up to the
            # external care set); they are minimized against it alone.
            care = external_care
        else:
            care = observability_care(
                netlist,
                manager,
                input_refs,
                signal,
                outputs,
                cut_level,
                external_care,
                overrides=accepted,
            )
        original = current[signal]
        if care == ZERO:
            # Completely unobservable: any constant implements it.
            candidate = ZERO
        else:
            candidate = heuristic(manager, original, care)
        size_before = manager.size(original)
        size_after = manager.size(candidate)
        replaced = size_after < size_before
        if replaced and signal in output_set:
            replaced = manager.agree(candidate, original, external_care)
        elif replaced and verify:
            trial = dict(accepted)
            trial[signal] = candidate
            substituted = netlist.to_bdds(
                manager, input_refs, overrides=trial
            )
            replaced = all(
                manager.agree(
                    substituted[output],
                    original_values[output],
                    external_care,
                )
                for output in outputs
            )
        if replaced:
            accepted[signal] = candidate
            report.functions[signal] = candidate
        report.nodes.append(
            NodeSimplification(
                signal=signal,
                size_before=size_before,
                size_after=size_after if replaced else size_before,
                care_fraction=(
                    manager.sat_count(care, total_vars_before_cut)
                    / (1 << total_vars_before_cut)
                ),
                replaced=replaced,
            )
        )
    return report
