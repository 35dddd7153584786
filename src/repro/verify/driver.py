"""The fuzz driver: corpus → oracles → lanes → shrink, one report.

:func:`run_fuzz` is the engine behind ``repro-bdd fuzz``.  Per round it
generates a seeded corpus, runs the metamorphic oracle pack over every
(instance, heuristic) pairing, pushes every instance through the
requested differential lanes, and — when ``shrink`` is on — minimizes
one representative failing instance per distinct ``(oracle,
heuristic)`` signature, emitting reproducer artifacts.

Determinism contract: with the same :class:`FuzzConfig` the corpus
fingerprints, oracle findings, non-chaos lane results, and shrunk
payloads are all identical, and :meth:`FuzzReport.fingerprint` hashes
exactly that deterministic content, including the inprocess lane's
canonical cover bytes, so a pinned fingerprint also pins every cover.
The chaos lane's per-request statuses depend on fault timing, so only
its *violations* (which must always be empty) participate in the
fingerprint; its status counts are reported informationally.

All stage counts flow into the ``repro.obs`` metrics registry when one
is active: ``verify.instances``, ``verify.oracle_checks``,
``verify.oracle_findings``, ``verify.lane_requests``,
``verify.lane_violations``, ``verify.shrinks``,
``verify.shrink_accepted_steps``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import metrics as obs_metrics
from repro.verify.corpus import Corpus, DEFAULT_FAMILIES, Instance
from repro.verify.lanes import (
    LANE_NAMES,
    build_lane,
    differential_violations,
    group_by_request,
)
from repro.verify.oracles import OracleFinding, run_oracles
from repro.verify.shrink import Reproducer, shrink, write_reproducer

DEFAULT_METHODS: Tuple[str, ...] = (
    "constrain",
    "restrict",
    "osm_bt",
    "osm_nv",
)

#: Distinct (oracle, heuristic) signatures shrunk per run.
MAX_SHRINKS = 4


@dataclass(frozen=True)
class FuzzConfig:
    """Arguments of one fuzz run (``repro-bdd fuzz`` flags)."""

    seed: int = 0
    rounds: int = 1
    size: int = 3
    num_vars: int = 6
    families: Tuple[str, ...] = DEFAULT_FAMILIES
    methods: Tuple[str, ...] = DEFAULT_METHODS
    lanes: Tuple[str, ...] = ("inprocess",)
    oracles: Optional[Tuple[str, ...]] = None
    shrink: bool = True
    deadline: float = 30.0
    output_dir: Optional[str] = None
    max_shrinks: int = MAX_SHRINKS


@dataclass
class FuzzReport:
    """Everything one fuzz run learned."""

    config: FuzzConfig
    corpus_fingerprints: List[str] = field(default_factory=list)
    instances: int = 0
    oracle_checks: int = 0
    oracle_findings: List[Dict[str, object]] = field(default_factory=list)
    lane_requests: int = 0
    lane_violations: List[str] = field(default_factory=list)
    lane_status_counts: Dict[str, Dict[str, int]] = field(
        default_factory=dict
    )
    shrunk: List[Dict[str, object]] = field(default_factory=list)
    reproducers: List[Reproducer] = field(default_factory=list)
    #: The inprocess lane's ``(instance digest, method, cover)`` cells:
    #: the cover's canonical wire bytes as hex, or the cell's status
    #: when it produced no cover.
    covers: List[Tuple[str, str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.oracle_findings and not self.lane_violations

    def fingerprint(self) -> str:
        """Digest of the deterministic report content."""
        digest = hashlib.sha256()
        stable = {
            "seed": self.config.seed,
            "rounds": self.config.rounds,
            "corpus_fingerprints": self.corpus_fingerprints,
            "instances": self.instances,
            "oracle_checks": self.oracle_checks,
            "oracle_findings": self.oracle_findings,
            "lane_violations": sorted(self.lane_violations),
            "covers": sorted(self.covers),
            "shrunk": [
                {
                    key: value
                    for key, value in record.items()
                    if key != "artifacts"
                }
                for record in self.shrunk
            ],
        }
        digest.update(
            json.dumps(stable, sort_keys=True, default=str).encode("utf-8")
        )
        return digest.hexdigest()

    def to_json(self) -> Dict[str, object]:
        return {
            "seed": self.config.seed,
            "rounds": self.config.rounds,
            "families": list(self.config.families),
            "methods": list(self.config.methods),
            "lanes": list(self.config.lanes),
            "instances": self.instances,
            "corpus_fingerprints": self.corpus_fingerprints,
            "oracle_checks": self.oracle_checks,
            "oracle_findings": self.oracle_findings,
            "lane_requests": self.lane_requests,
            "lane_violations": self.lane_violations,
            "lane_status_counts": self.lane_status_counts,
            "shrunk": self.shrunk,
            "ok": self.ok,
            "fingerprint": self.fingerprint(),
        }


def _inc(name: str, amount: int = 1) -> None:
    mreg = obs_metrics.active()
    if mreg is not None:
        mreg.inc(name, amount)


def _resolve_heuristics(methods: Sequence[str]) -> Dict[str, Callable]:
    from repro.core.registry import get_heuristic

    return {
        name: get_heuristic(name, audited=False, guarded=False)
        for name in methods
    }


def _finding_record(finding: OracleFinding) -> Dict[str, object]:
    return {
        "oracle": finding.oracle,
        "heuristic": finding.heuristic,
        "instance": finding.instance.label,
        "family": finding.instance.family,
        "message": finding.message,
        "payload_hex": finding.instance.payload.hex(),
    }


def oracle_failure_predicate(
    oracle: str, heuristic: Optional[str]
) -> Callable[[bytes], bool]:
    """Does ``oracle`` still fail (for ``heuristic``) on a payload?

    The shrinker's reproduction predicate: re-runs exactly the violated
    oracle on the candidate instance through the live registry, so a
    planted (registered) bug keeps reproducing and a fixed one stops.
    """

    def reproduces(payload: bytes) -> bool:
        instance = Instance("shrink", 0, 0, payload)
        heuristics = (
            _resolve_heuristics([heuristic]) if heuristic is not None else {}
        )
        return bool(run_oracles(instance, heuristics, [oracle]))

    return reproduces


def run_fuzz(
    config: FuzzConfig,
    log: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Run the full corpus → oracles → lanes → shrink cycle."""
    unknown = [name for name in config.lanes if name not in LANE_NAMES]
    if unknown:
        raise ValueError(
            "unknown lanes %r (available: %s)"
            % (unknown, ", ".join(LANE_NAMES))
        )
    say = log if log is not None else (lambda message: None)
    report = FuzzReport(config=config)
    heuristics = _resolve_heuristics(config.methods)
    findings: List[OracleFinding] = []

    for round_index in range(config.rounds):
        round_seed = config.seed + round_index
        corpus = Corpus(
            families=config.families,
            size=config.size,
            num_vars=config.num_vars,
            seed=round_seed,
        )
        instances = corpus.generate()
        report.corpus_fingerprints.append(corpus.fingerprint())
        report.instances += len(instances)
        _inc("verify.instances", len(instances))
        say(
            "round %d: %d instances (%s)"
            % (
                round_index,
                len(instances),
                ", ".join(
                    "%s=%d" % item
                    for item in sorted(corpus.statistics().items())
                ),
            )
        )

        # Stage 2: the metamorphic oracle pack.
        round_findings = 0
        for instance in instances:
            found = run_oracles(instance, heuristics, config.oracles)
            checks = len(heuristics) + 2  # per-heuristic + per-instance
            report.oracle_checks += checks
            _inc("verify.oracle_checks", checks)
            for finding in found:
                findings.append(finding)
                report.oracle_findings.append(_finding_record(finding))
                round_findings += 1
        if round_findings:
            _inc("verify.oracle_findings", round_findings)
            say(
                "round %d: %d oracle finding(s)"
                % (round_index, round_findings)
            )

        # Stage 3: differential lanes.
        for lane_name in config.lanes:
            lane = build_lane(
                lane_name, seed=round_seed, deadline=config.deadline
            )
            results = lane.run(instances, config.methods)
            report.lane_requests += len(results)
            _inc("verify.lane_requests", len(results))
            counts = report.lane_status_counts.setdefault(lane_name, {})
            for result in results:
                counts[result.status] = counts.get(result.status, 0) + 1
                if lane_name == "inprocess":
                    report.covers.append(
                        (
                            result.instance.digest,
                            result.method,
                            result.status
                            if result.cover_payload is None
                            else result.cover_payload.hex(),
                        )
                    )
            by_digest = {
                instance.digest: instance for instance in instances
            }
            for (digest, method), grouped in group_by_request(
                results
            ).items():
                report.lane_violations.extend(
                    differential_violations(
                        by_digest[digest], method, grouped
                    )
                )
        if report.lane_violations:
            _inc("verify.lane_violations", len(report.lane_violations))
            say("lane violations: %d" % len(report.lane_violations))

    # Stage 4: shrink one representative per failure signature.
    if config.shrink and findings:
        seen: Dict[Tuple[str, Optional[str]], OracleFinding] = {}
        for finding in findings:
            seen.setdefault((finding.oracle, finding.heuristic), finding)
        for index, ((oracle, heuristic), finding) in enumerate(
            sorted(seen.items(), key=lambda item: str(item[0]))
        ):
            if index >= config.max_shrinks:
                say(
                    "shrink budget reached; %d signature(s) skipped"
                    % (len(seen) - config.max_shrinks)
                )
                break
            predicate = oracle_failure_predicate(oracle, heuristic)
            result = shrink(finding.instance.payload, predicate)
            _inc("verify.shrinks")
            _inc("verify.shrink_accepted_steps", result.accepted)
            record: Dict[str, object] = {
                "oracle": oracle,
                "heuristic": heuristic,
                "message": finding.message,
                "num_vars": result.num_vars,
                "original_num_vars": result.original_num_vars,
                "payload_hex": result.payload.hex(),
                "rounds": result.rounds,
            }
            say(
                "shrunk %s/%s: %d -> %d variable(s)"
                % (
                    oracle,
                    heuristic or "-",
                    result.original_num_vars,
                    result.num_vars,
                )
            )
            if config.output_dir is not None:
                tag = "fuzz_%s_%s_%s" % (
                    oracle,
                    heuristic or "instance",
                    finding.instance.digest[:8],
                )
                artifacts = write_reproducer(
                    result,
                    oracle,
                    heuristic,
                    finding.message,
                    config.output_dir,
                    tag,
                )
                report.reproducers.append(artifacts)
                record["artifacts"] = [
                    artifacts.json_path,
                    artifacts.stub_path,
                ]
            report.shrunk.append(record)

    return report
