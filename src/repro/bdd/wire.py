"""A versioned, deterministic wire format for ROBDDs.

The serving layer (:mod:`repro.serve`) moves minimization requests and
results across process boundaries, so BDDs need a durable encoding that
is independent of any particular :class:`~repro.bdd.manager.Manager`'s
node numbering.  This module provides one:

* **Deterministic.**  Nodes are emitted in a canonical reverse
  topological order (children before parents, else-edge explored
  first, roots left to right), so the *same functions over the same
  variable universe produce identical bytes* no matter which manager
  built them or in what order its unique table grew.  Byte-for-byte
  equality of payloads therefore implies semantic equality, and
  payloads are usable as cache keys.
* **Versioned.**  A magic tag and a format version lead the payload;
  an unknown version is rejected, never misparsed.
* **Checksummed.**  A CRC-32 trailer covers the whole payload.  Any
  truncation or bit flip fails validation with a typed
  :class:`WireError` — malformed input *never* surfaces as a raw
  ``struct.error``/``IndexError``/``UnicodeDecodeError``.
* **Self-validating.**  Decoding re-checks every structural invariant
  (descending levels, regular then-edges, distinct children, no
  duplicate or forward references) and rebuilds nodes through
  :meth:`~repro.bdd.manager.Manager.make_node`, so a decoded BDD is
  canonical in its target manager by construction.

Layout (all integers little-endian)::

    magic    4 bytes  b"RBDD"
    version  u8       WIRE_VERSION
    reserved u8       0
    num_vars u32      declared variables, level order
    names    per var: u16 byte-length + UTF-8 bytes
    num_nodes u32     non-terminal nodes
    nodes    per node: u32 level, u32 then-wire-ref, u32 else-wire-ref
    num_roots u32
    roots    u32 wire refs
    crc32    u32      CRC-32 of every preceding byte

A *wire ref* is ``(dense_id << 1) | complement_bit`` where dense id 0
is the terminal and node *k* of the stream has dense id ``k + 1`` —
the same tagged-integer scheme the manager uses in memory, but with
ids assigned by the canonical traversal instead of creation order.
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.flow import deterministic
from repro.bdd.manager import Manager, TERMINAL_LEVEL

#: Leading magic of every payload.
WIRE_MAGIC = b"RBDD"

#: Current format version; bumped on incompatible layout changes.
WIRE_VERSION = 1

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")

#: Encoded sizes never exceed this many nodes/vars/roots per payload —
#: a sanity bound that turns a corrupted count field into a clean
#: :class:`WireError` instead of a multi-gigabyte allocation.
MAX_WIRE_ITEMS = 1 << 26


class WireError(Exception):
    """A wire payload is malformed, corrupted, or incompatible.

    The single exception type the decoder raises: checksum mismatches,
    truncation, unknown versions, structural violations and variable
    universe mismatches all land here, so callers (the serve layer, the
    CLI) need exactly one ``except`` arm to reject bad input.
    """


class _Reader:
    """Bounds-checked cursor over a payload's bytes."""

    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, count: int, what: str) -> bytes:
        end = self.offset + count
        if end > len(self.data):
            raise WireError(
                "truncated payload: needed %d byte(s) for %s at offset "
                "%d, only %d available"
                % (count, what, self.offset, len(self.data) - self.offset)
            )
        chunk = self.data[self.offset:end]
        self.offset = end
        return chunk

    def u8(self, what: str) -> int:
        return _U8.unpack(self.take(1, what))[0]

    def u16(self, what: str) -> int:
        return _U16.unpack(self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return _U32.unpack(self.take(4, what))[0]


@deterministic
def _emission_order(manager: Manager, roots: Sequence[int]) -> List[int]:
    """Canonical reverse-topological node order for the given roots.

    Children precede parents; within a node the else-child is explored
    before the then-child; roots are explored left to right.  The order
    depends only on the *functions* (canonical ROBDD structure), never
    on the manager's internal node numbering, which is what makes the
    encoding deterministic across managers.  Iterative on an explicit
    stack, so arbitrarily deep BDDs serialize without recursion.
    """
    status: Dict[int, int] = {0: 2}  # 0 new, 1 expanded, 2 emitted
    order: List[int] = []
    for root in roots:
        stack = [root >> 1]
        while stack:
            index = stack[-1]
            state = status.get(index, 0)
            if state == 0:
                status[index] = 1
                _, then_ref, else_ref = manager.top_branches(index << 1)
                # Push then first so else pops (and emits) first.
                then_index = then_ref >> 1
                else_index = else_ref >> 1
                if status.get(then_index, 0) == 0:
                    stack.append(then_index)
                if status.get(else_index, 0) == 0:
                    stack.append(else_index)
            elif state == 1:
                status[index] = 2
                order.append(index)
                stack.pop()
            else:
                stack.pop()
    return order


@deterministic
def serialize(manager: Manager, roots: Sequence[int]) -> bytes:
    """Encode functions of ``manager`` into a wire payload.

    ``roots`` is a sequence of refs; the payload carries the full
    declared variable universe (names in level order) plus the shared
    DAG of all roots, and decodes back to refs index-aligned with the
    input.  Raises :class:`WireError` if a root is not a valid ref of
    ``manager`` or a variable name does not fit the format.
    """
    num_nodes = manager.num_nodes
    for root in roots:
        index = root >> 1
        if not 0 <= index < num_nodes:
            raise WireError("root %d is not a ref of this manager" % root)
    parts = [WIRE_MAGIC, _U8.pack(WIRE_VERSION), _U8.pack(0)]
    names = manager.var_names
    parts.append(_U32.pack(len(names)))
    for name in names:
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise WireError(
                "variable name %r exceeds the wire format's 65535-byte "
                "limit" % name
            )
        parts.append(_U16.pack(len(encoded)))
        parts.append(encoded)
    order = _emission_order(manager, roots)
    dense: Dict[int, int] = {0: 0}
    for position, index in enumerate(order):
        dense[index] = position + 1
    parts.append(_U32.pack(len(order)))
    for index in order:
        level, then_ref, else_ref = manager.top_branches(index << 1)
        parts.append(_U32.pack(level))
        parts.append(
            _U32.pack((dense[then_ref >> 1] << 1) | (then_ref & 1))
        )
        parts.append(
            _U32.pack((dense[else_ref >> 1] << 1) | (else_ref & 1))
        )
    parts.append(_U32.pack(len(roots)))
    for root in roots:
        parts.append(_U32.pack((dense[root >> 1] << 1) | (root & 1)))
    payload = b"".join(parts)
    return payload + _U32.pack(zlib.crc32(payload) & 0xFFFFFFFF)


def _check_count(count: int, what: str) -> int:
    if count > MAX_WIRE_ITEMS:
        raise WireError(
            "%s count %d exceeds the format bound %d (corrupted "
            "payload?)" % (what, count, MAX_WIRE_ITEMS)
        )
    return count


def _decode_var_names(reader: _Reader) -> List[str]:
    num_vars = _check_count(reader.u32("variable count"), "variable")
    names: List[str] = []
    for position in range(num_vars):
        length = reader.u16("variable name length")
        raw = reader.take(length, "variable name")
        try:
            names.append(raw.decode("utf-8"))
        except UnicodeDecodeError as error:
            raise WireError(
                "variable %d has a non-UTF-8 name: %s" % (position, error)
            ) from None
    return names


def _target_manager(
    names: Sequence[str], manager: Optional[Manager]
) -> Manager:
    """Resolve (and align) the manager the payload decodes into.

    With no manager given, a fresh one is created over exactly the
    payload's variables.  A provided manager must agree with the
    payload on every shared level and is extended with any missing
    variables — a level/name mismatch would silently reinterpret every
    node, so it is a :class:`WireError`.
    """
    if manager is None:
        return Manager(var_names=names)
    declared = manager.var_names
    for level, name in enumerate(names):
        if level < len(declared):
            if declared[level] != name:
                raise WireError(
                    "variable universe mismatch at level %d: payload "
                    "declares %r, manager declares %r"
                    % (level, name, declared[level])
                )
        else:
            manager.new_var(name)
    return manager


class ParsedPayload:
    """A fully parsed and checksum-validated payload, not yet built.

    The output of :func:`parse_payload` and the input of
    :func:`build_parsed`.  Splitting decode into parse (pure bytes
    work: framing, structural validation, CRC) and build (manager
    resolution plus ``make_node`` reconstruction) lets the serving
    layer account for the two costs separately — wire decode vs
    manager build are distinct phases in the worker's phase ledger
    (:class:`repro.serve.pool.PhaseClock`).
    """

    __slots__ = ("names", "node_records", "root_wires")

    def __init__(
        self,
        names: List[str],
        node_records: List[Tuple[int, int, int]],
        root_wires: List[int],
    ) -> None:
        self.names = names
        self.node_records = node_records
        self.root_wires = root_wires


def parse_payload(data: bytes) -> ParsedPayload:
    """Parse and validate a payload without touching any manager.

    Performs every byte-level check :func:`deserialize` does — magic,
    version, structural invariants on the node table, root bounds and
    the CRC-32 — and returns the validated :class:`ParsedPayload`.
    Raises :class:`WireError` on any malformed, truncated, corrupted
    or version-incompatible input.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise WireError(
            "payload must be bytes, got %s" % type(data).__name__
        )
    reader = _Reader(bytes(data))
    if reader.take(4, "magic") != WIRE_MAGIC:
        raise WireError("bad magic: not a %r payload" % WIRE_MAGIC)
    version = reader.u8("version")
    if version != WIRE_VERSION:
        raise WireError(
            "unsupported wire version %d (this build reads version %d)"
            % (version, WIRE_VERSION)
        )
    reader.u8("reserved byte")
    names = _decode_var_names(reader)
    num_nodes = _check_count(reader.u32("node count"), "node")
    # Validate the checksum before touching any manager state: the
    # node table region is parsed below, and a corrupted payload must
    # not half-populate a caller-provided manager first.
    body_end = reader.offset
    nodes_start = reader.offset
    target = None  # resolved after the checksum passes
    node_records: List[Tuple[int, int, int]] = []
    seen_triples = set()
    num_vars = len(names)
    for position in range(num_nodes):
        level = reader.u32("node %d level" % position)
        then_wire = reader.u32("node %d then-edge" % position)
        else_wire = reader.u32("node %d else-edge" % position)
        if level >= num_vars:
            raise WireError(
                "node %d has level %d but only %d variable(s) are "
                "declared" % (position, level, num_vars)
            )
        if then_wire & 1:
            raise WireError(
                "node %d has a complemented then-edge (non-canonical)"
                % position
            )
        if then_wire == else_wire:
            raise WireError("node %d has equal children" % position)
        for wire_ref, edge in ((then_wire, "then"), (else_wire, "else")):
            if wire_ref >> 1 > position:
                raise WireError(
                    "node %d %s-edge references dense id %d, which is "
                    "not yet defined (forward reference)"
                    % (position, edge, wire_ref >> 1)
                )
        triple = (level, then_wire, else_wire)
        if triple in seen_triples:
            raise WireError(
                "node %d duplicates an earlier node %r" % (position, triple)
            )
        seen_triples.add(triple)
        node_records.append(triple)
    num_roots = _check_count(reader.u32("root count"), "root")
    root_wires: List[int] = []
    for position in range(num_roots):
        wire_ref = reader.u32("root %d" % position)
        if wire_ref >> 1 > num_nodes:
            raise WireError(
                "root %d references dense id %d, beyond the %d encoded "
                "node(s)" % (position, wire_ref >> 1, num_nodes)
            )
        root_wires.append(wire_ref)
    body_end = reader.offset
    stored_crc = reader.u32("checksum")
    if reader.offset != len(reader.data):
        raise WireError(
            "%d trailing byte(s) after the checksum"
            % (len(reader.data) - reader.offset)
        )
    actual_crc = zlib.crc32(reader.data[:body_end]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise WireError(
            "checksum mismatch: payload carries %08x, computed %08x "
            "(corrupted in transit?)" % (stored_crc, actual_crc)
        )
    del nodes_start
    return ParsedPayload(names, node_records, root_wires)


def build_parsed(
    parsed: ParsedPayload, manager: Optional[Manager] = None
) -> Tuple[Manager, List[int]]:
    """Rebuild a :class:`ParsedPayload` into ``(manager, roots)``.

    The manager-building half of :func:`deserialize`: resolves (or
    creates) the target manager and reconstructs every node through
    ``make_node``, re-checking level descent against the canonical
    children the manager reports.  Raises :class:`WireError` on a
    universe mismatch or a non-descending edge.
    """
    names = parsed.names
    node_records = parsed.node_records
    root_wires = parsed.root_wires
    target = _target_manager(names, manager)
    # dense id -> ref in the target manager; the level check below
    # needs each child's level, which make_node's canonical result
    # provides through the manager itself.
    refs: List[int] = [0]  # dense id 0 is the terminal (ONE as regular)
    for position, (level, then_wire, else_wire) in enumerate(node_records):
        then_child = refs[then_wire >> 1] ^ (then_wire & 1)
        else_child = refs[else_wire >> 1] ^ (else_wire & 1)
        for child, edge in ((then_child, "then"), (else_child, "else")):
            child_level = target.level(child)
            if child_level <= level:
                raise WireError(
                    "node %d %s-edge does not descend: level %d to "
                    "level %s"
                    % (
                        position,
                        edge,
                        level,
                        "terminal"
                        if child_level == TERMINAL_LEVEL
                        else child_level,
                    )
                )
        refs.append(target.make_node(level, then_child, else_child))
    roots = [refs[wire >> 1] ^ (wire & 1) for wire in root_wires]
    return target, roots


def deserialize(
    data: bytes, manager: Optional[Manager] = None
) -> Tuple[Manager, List[int]]:
    """Decode a payload into ``(manager, roots)``.

    ``manager`` defaults to a fresh manager over the payload's variable
    universe; pass an existing one to decode into it (its variables
    must agree with the payload by name and level; missing ones are
    declared).  Every structural invariant is re-validated and nodes
    are rebuilt through ``make_node``, so the returned refs are
    canonical in the target manager.  Raises :class:`WireError` on any
    malformed, truncated, corrupted or version-incompatible input.

    Equivalent to :func:`parse_payload` followed by
    :func:`build_parsed`; callers that need the two costs separated
    (the pool worker's decode vs manager-build phases) call the halves
    directly.
    """
    return build_parsed(parse_payload(data), manager=manager)


@deterministic
def serialize_instance(manager: Manager, f: int, c: int) -> bytes:
    """Encode one ``[f, c]`` minimization instance."""
    return serialize(manager, (f, c))


def deserialize_instance(
    data: bytes, manager: Optional[Manager] = None
) -> Tuple[Manager, int, int]:
    """Decode a payload produced by :func:`serialize_instance`.

    Returns ``(manager, f, c)``; raises :class:`WireError` if the
    payload does not carry exactly two roots.
    """
    target, roots = deserialize(data, manager=manager)
    if len(roots) != 2:
        raise WireError(
            "instance payload must carry exactly 2 roots [f, c], got %d"
            % len(roots)
        )
    return target, roots[0], roots[1]


def payload_summary(data: bytes) -> Dict[str, int]:
    """Cheap structural summary of a payload (validates it fully)."""
    target, roots = deserialize(data)
    return {
        "version": WIRE_VERSION,
        "num_vars": target.num_vars,
        "num_nodes": target.size_multi(roots),
        "num_roots": len(roots),
        "num_bytes": len(data),
    }


#: Leading magic of every batch envelope.
BATCH_MAGIC = b"RBDB"

#: Current batch envelope version; bumped on incompatible changes.
BATCH_VERSION = 1


class BatchEnvelope:
    """A decoded batch envelope: shared instances plus cell references.

    ``instances`` is the shared-instance table — each entry is a
    complete single-instance wire payload (:func:`serialize_instance`
    bytes, own CRC included), encoded exactly once no matter how many
    cells reference it.  ``cells`` is the work list: each cell is an
    ``(instance_index, method)`` pair naming which shared instance to
    minimize with which registered heuristic.  The envelope framing is
    validated by :func:`decode_batch`; the nested instance payloads are
    *not* re-parsed here — the worker decodes each referenced instance
    lazily (and exactly once per batch) so decode cost lands in its
    per-cell phase ledger.
    """

    __slots__ = ("instances", "cells")

    def __init__(
        self,
        instances: List[bytes],
        cells: List[Tuple[int, str]],
    ) -> None:
        self.instances = instances
        self.cells = cells


@deterministic
def encode_batch(
    instances: Sequence[bytes], cells: Sequence[Tuple[int, str]]
) -> bytes:
    """Pack shared instance payloads and cells into one batch envelope.

    Layout (all integers little-endian)::

        magic          4 bytes  b"RBDB"
        version        u8       BATCH_VERSION
        reserved       u8       0
        num_instances  u32
        instances      per instance: u32 byte-length + payload bytes
        num_cells      u32
        cells          per cell: u32 instance index,
                                 u16 method byte-length + UTF-8 bytes
        crc32          u32      CRC-32 of every preceding byte

    Each instance payload is an opaque single-instance wire payload
    (it carries its own CRC); the envelope CRC covers the framing and
    the embedded bytes.  Raises :class:`WireError` on an out-of-range
    cell index, an oversized method name, or an empty cell list — an
    empty batch is always a caller bug, never a wire condition.
    """
    if not cells:
        raise WireError("batch envelope must carry at least one cell")
    parts = [BATCH_MAGIC, _U8.pack(BATCH_VERSION), _U8.pack(0)]
    parts.append(_U32.pack(len(instances)))
    for position, payload in enumerate(instances):
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            raise WireError(
                "instance %d must be bytes, got %s"
                % (position, type(payload).__name__)
            )
        raw = bytes(payload)
        parts.append(_U32.pack(len(raw)))
        parts.append(raw)
    parts.append(_U32.pack(len(cells)))
    for position, (instance_index, method) in enumerate(cells):
        if not 0 <= instance_index < len(instances):
            raise WireError(
                "cell %d references instance %d, but the envelope "
                "carries %d instance(s)"
                % (position, instance_index, len(instances))
            )
        encoded = method.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise WireError(
                "cell %d method name exceeds the wire format's "
                "65535-byte limit" % position
            )
        parts.append(_U32.pack(instance_index))
        parts.append(_U16.pack(len(encoded)))
        parts.append(encoded)
    envelope = b"".join(parts)
    return envelope + _U32.pack(zlib.crc32(envelope) & 0xFFFFFFFF)


def decode_batch(data: bytes) -> BatchEnvelope:
    """Decode and validate a batch envelope's framing.

    Checks magic, version, CRC-32 and every structural bound (counts
    against :data:`MAX_WIRE_ITEMS`, instance indices against the
    instance table, method names as UTF-8) and raises
    :class:`WireError` on any violation.  The nested instance payloads
    are returned as raw bytes; callers validate them with
    :func:`parse_payload` when (and only when) a cell needs them.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise WireError(
            "batch envelope must be bytes, got %s" % type(data).__name__
        )
    reader = _Reader(bytes(data))
    if reader.take(4, "batch magic") != BATCH_MAGIC:
        raise WireError("bad magic: not a %r batch envelope" % BATCH_MAGIC)
    version = reader.u8("batch version")
    if version != BATCH_VERSION:
        raise WireError(
            "unsupported batch version %d (this build reads version %d)"
            % (version, BATCH_VERSION)
        )
    reader.u8("batch reserved byte")
    num_instances = _check_count(
        reader.u32("instance count"), "instance"
    )
    instances: List[bytes] = []
    for position in range(num_instances):
        length = _check_count(
            reader.u32("instance %d length" % position), "instance byte"
        )
        instances.append(reader.take(length, "instance %d" % position))
    num_cells = _check_count(reader.u32("cell count"), "cell")
    if num_cells == 0:
        raise WireError("batch envelope carries no cells")
    cells: List[Tuple[int, str]] = []
    for position in range(num_cells):
        instance_index = reader.u32("cell %d instance index" % position)
        if instance_index >= num_instances:
            raise WireError(
                "cell %d references instance %d, but the envelope "
                "carries %d instance(s)"
                % (position, instance_index, num_instances)
            )
        length = reader.u16("cell %d method length" % position)
        raw = reader.take(length, "cell %d method" % position)
        try:
            method = raw.decode("utf-8")
        except UnicodeDecodeError as error:
            raise WireError(
                "cell %d has a non-UTF-8 method name: %s"
                % (position, error)
            ) from None
        cells.append((instance_index, method))
    body_end = reader.offset
    stored_crc = reader.u32("batch checksum")
    if reader.offset != len(reader.data):
        raise WireError(
            "%d trailing byte(s) after the batch checksum"
            % (len(reader.data) - reader.offset)
        )
    actual_crc = zlib.crc32(reader.data[:body_end]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise WireError(
            "batch checksum mismatch: envelope carries %08x, computed "
            "%08x (corrupted in transit?)" % (stored_crc, actual_crc)
        )
    return BatchEnvelope(instances, cells)
