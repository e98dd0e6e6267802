"""The ``rfid-ctg/ctg@1`` single-file binary graph codec.

A ``.ctg`` file carries one finished
:class:`~repro.core.flatgraph.FlatCTGraph` as raw little-endian columns,
laid out so a loader can hand out per-level array views over a single
``mmap`` without parsing, copying or boxing anything:

``fixed header`` (64 bytes, little-endian)
    ``magic`` (8 bytes, ``b"RFIDCTG\\x00"``), ``version`` (u32, 1),
    ``flags`` (u32, bit 0 = stats section present), ``duration`` (u32),
    ``num_location_names`` (u32), ``num_nodes`` (u64), ``num_edges``
    (u64), ``section_table_offset`` (u64, absolute), ``payload_length``
    (u64, everything after the header) and ``checksum`` (u32, CRC-32 of
    the payload), then 4 reserved bytes.

``string table``
    ``num_location_names`` entries of ``u32 byte length`` + UTF-8 bytes —
    the interned location names, in id order.

``stats section`` (optional, flag bit 0)
    ``u32 length`` + a UTF-8 JSON object of the
    :class:`~repro.core.algorithm.CleaningStats` fields.

``column sections`` (each 8-byte aligned)
    In a fixed canonical order: per level ``tau`` the ``locations`` and
    ``stays`` columns (int32; a ``None`` stay is stored as ``-1``), per
    edge level ``tau`` the CSR ``edge_offsets``/``edge_children`` columns
    (int32) and the ``edge_probabilities`` column (float64), then the
    ``source_probabilities`` column (float64).

``section table`` (8-byte aligned, at ``section_table_offset``)
    One ``(u64 absolute byte offset, u64 element count)`` pair per column
    section, in the same canonical order.  Explicit offsets make every
    section independently addressable — a reader never has to walk the
    columns to find one.

The 8-byte alignment means every section can be viewed in place:
:func:`load_ctg` serves each column as a ``memoryview.cast`` of the
buffer, which the pure-python query DPs index as plain ints and floats
and :class:`~repro.core.kernels.GraphViews` wraps zero-copy as an
ndarray.  The CRC-32 makes corruption detectable (:func:`load_ctg`
verifies it on ``verify=True``).
Structural bounds — magic, version, section offsets and counts against
the payload — are *always* validated at load, so a truncated file fails
with a typed :class:`~repro.errors.StoreFormatError` instead of an
out-of-bounds read later.

This module is the **one authoritative codec** for the format: lint rule
L010 forbids raw ``struct`` packing/unpacking of ``.ctg`` bytes anywhere
outside ``repro/store/``.

A second, sibling format lives here for the same reason: the
``rfid-ctg/ckpt@1`` **stream checkpoint** written by
:class:`repro.streaming.StreamingCleaner` (see
:func:`write_stream_checkpoint` / :func:`read_stream_checkpoint`).  It
shares the house style of the graph codec — little-endian fixed header,
interned string table, CRC-32 over the payload, atomic tmp →
``os.replace`` publish — but carries *in-flight* state instead of a
finished graph: the retained candidate rows and the per-level forward
frontiers, both with bit-exact float64 probabilities, plus a JSON meta
section (window, eviction base, options, constraints).  Probabilities
round-trip as raw doubles, which is what makes a resumed session
bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import dataclasses
import json
import mmap as _mmap
import os
import struct
import sys
import zlib
from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.flatgraph import FlatCTGraph
from repro.errors import QueryError, StoreChecksumError, StoreFormatError

__all__ = [
    "CTG_MAGIC",
    "CTG_VERSION",
    "CKPT_MAGIC",
    "CKPT_VERSION",
    "HEADER_BYTES",
    "CheckpointPayload",
    "CheckpointState",
    "MappedCTGraph",
    "SHARD_MANIFEST",
    "ensure_shard_manifest",
    "load_ctg",
    "read_stream_checkpoint",
    "read_shard_manifest",
    "save_ctg",
    "write_ctg",
    "write_stream_checkpoint",
]

CTG_MAGIC = b"RFIDCTG\x00"
CTG_VERSION = 1

CKPT_MAGIC = b"RFIDCKP\x00"
CKPT_VERSION = 1

#: magic, version, flags, duration, num_names, num_nodes, num_edges,
#: section_table_offset, payload_length, checksum, 4 reserved bytes.
_HEADER = struct.Struct("<8sIIIIQQQQI4x")
HEADER_BYTES = _HEADER.size
_SECTION_ENTRY = struct.Struct("<QQ")
_LENGTH = struct.Struct("<I")
_FLAG_STATS = 1
_ALIGN = 8

#: The array typecode whose machine width is 4 bytes (``"i"`` on every
#: platform CPython supports; ``"l"`` is the documented fallback).
_I32 = "i" if array("i").itemsize == 4 else "l"

try:  # the *writer* accepts ndarrays whenever numpy is importable at all
    import numpy as _np  # type: ignore[import-not-found]
except ImportError:  # pragma: no cover - exercised on the no-numpy leg
    _np = None  # type: ignore[assignment]

#: One column of a loaded graph: a ``memoryview`` cast, or a byteswapped
#: ``array.array`` copy (big-endian hosts only).
Column = Union[memoryview, array]


def _section_plan(duration: int) -> Iterator[Tuple[str, int, int]]:
    """The canonical ``(kind, level, itemsize)`` order of the sections."""
    for tau in range(duration):
        yield ("loc", tau, 4)
        yield ("stay", tau, 4)
    for tau in range(duration - 1):
        yield ("off", tau, 4)
        yield ("child", tau, 4)
        yield ("prob", tau, 8)
    yield ("source", 0, 8)


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def _native(values: object, code: str) -> bool:
    """Whether ``values`` already holds the column's little-endian bytes:
    a ``memoryview`` column of a loaded ``.ctg`` on a little-endian host,
    which re-encodes with one ``tobytes()`` instead of a per-item copy."""
    return (isinstance(values, memoryview) and values.format == code
            and sys.byteorder == "little")


def _encode_i32(values: Sequence[int]) -> bytes:
    if _np is not None and isinstance(values, _np.ndarray):
        return _np.ascontiguousarray(values, dtype="<i4").tobytes()
    if _native(values, _I32):
        return values.tobytes()  # type: ignore[attr-defined]
    encoded = array(_I32, values)
    if sys.byteorder == "big":  # pragma: no cover - big-endian hosts only
        encoded.byteswap()
    return encoded.tobytes()


def _encode_f64(values: Sequence[float]) -> bytes:
    if _np is not None and isinstance(values, _np.ndarray):
        return _np.ascontiguousarray(values, dtype="<f8").tobytes()
    if _native(values, "d"):
        return values.tobytes()  # type: ignore[attr-defined]
    encoded = array("d", values)
    if sys.byteorder == "big":  # pragma: no cover - big-endian hosts only
        encoded.byteswap()
    return encoded.tobytes()


def _encode_stays(row: Sequence[Optional[int]]) -> bytes:
    if _np is not None and isinstance(row, _np.ndarray):
        return _encode_i32(row)  # already sentinel-encoded
    return _encode_i32([-1 if stay is None else stay for stay in row])


class _CrcWriter:
    """Streams payload chunks, tracking position and the running CRC-32."""

    def __init__(self, fh, position: int) -> None:
        self._fh = fh
        self.position = position
        self.crc = 0

    def write(self, data: bytes) -> None:
        self._fh.write(data)
        self.crc = zlib.crc32(data, self.crc)
        self.position += len(data)

    def align(self) -> None:
        pad = -self.position % _ALIGN
        if pad:
            self.write(b"\x00" * pad)


def write_ctg(path, *, location_names: Sequence[str],
              locations: Sequence[Sequence[int]],
              stays: Sequence[Sequence[Optional[int]]],
              edge_offsets: Sequence[Sequence[int]],
              edge_children: Sequence[Sequence[int]],
              edge_probabilities: Sequence[Sequence[float]],
              source_probabilities: Sequence[float],
              stats=None) -> int:
    """Write one graph's columns as a ``.ctg`` file; returns bytes written.

    Each column may be a plain sequence (tuple/list), an ``array.array``
    or a numpy ndarray — the engine's direct-write path hands the int64 /
    float64 ndarrays of its backward sweep straight in, skipping Python
    tuple materialisation entirely.  ``stays`` rows may hold ``None``
    (encoded as ``-1``) unless passed as an ndarray, which must already
    be sentinel-encoded.
    """
    duration = len(locations)
    if duration < 1:
        raise StoreFormatError("a .ctg graph needs at least one level")
    if not (len(stays) == duration
            and len(edge_offsets) == duration - 1
            and len(edge_children) == duration - 1
            and len(edge_probabilities) == duration - 1):
        raise StoreFormatError("level array lengths disagree")
    num_nodes = sum(len(level) for level in locations)
    num_edges = sum(len(children) for children in edge_children)
    flags = 0
    stats_blob = b""
    if stats is not None:
        flags |= _FLAG_STATS
        stats_blob = json.dumps(
            {field.name: getattr(stats, field.name)
             for field in dataclasses.fields(stats)},
            sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"\x00" * HEADER_BYTES)  # patched after the payload
        writer = _CrcWriter(fh, HEADER_BYTES)
        for name in location_names:
            encoded = name.encode("utf-8")
            writer.write(_LENGTH.pack(len(encoded)))
            writer.write(encoded)
        writer.align()
        if stats_blob:
            writer.write(_LENGTH.pack(len(stats_blob)))
            writer.write(stats_blob)
            writer.align()
        table: List[Tuple[int, int]] = []
        for kind, tau, _itemsize in _section_plan(duration):
            if kind == "loc":
                column, data = locations[tau], _encode_i32(locations[tau])
            elif kind == "stay":
                column, data = stays[tau], _encode_stays(stays[tau])
            elif kind == "off":
                column = edge_offsets[tau]
                data = _encode_i32(column)
            elif kind == "child":
                column = edge_children[tau]
                data = _encode_i32(column)
            elif kind == "prob":
                column = edge_probabilities[tau]
                data = _encode_f64(column)
            else:
                column = source_probabilities
                data = _encode_f64(column)
            writer.align()
            table.append((writer.position, len(column)))
            writer.write(data)
        writer.align()
        table_offset = writer.position
        for offset, count in table:
            writer.write(_SECTION_ENTRY.pack(offset, count))
        payload_length = writer.position - HEADER_BYTES
        fh.seek(0)
        fh.write(_HEADER.pack(
            CTG_MAGIC, CTG_VERSION, flags, duration, len(location_names),
            num_nodes, num_edges, table_offset, payload_length, writer.crc))
    return HEADER_BYTES + payload_length


def save_ctg(graph, path) -> int:
    """Write a finished graph as a ``.ctg`` file; returns bytes written.

    Accepts a :class:`~repro.core.flatgraph.FlatCTGraph`, a
    :class:`MappedCTGraph` view (re-encoding round-trips exactly), or a
    node-form :class:`~repro.core.ctgraph.CTGraph` (converted through
    ``to_flat()`` first).
    """
    from repro.core.ctgraph import CTGraph  # lazy: keeps the DAG shallow

    if isinstance(graph, CTGraph):
        graph = graph.to_flat()
    return write_ctg(
        path,
        location_names=tuple(graph.location_names),
        locations=graph.locations,
        stays=graph.stays,
        edge_offsets=graph.edge_offsets,
        edge_children=graph.edge_children,
        edge_probabilities=graph.edge_probabilities,
        source_probabilities=graph.source_probabilities,
        stats=graph.stats)


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------
def _decode(buffer: memoryview, offset: int, count: int,
            itemsize: int) -> Column:
    """One little-endian column of ``buffer`` — int32 for ``itemsize``
    4, float64 for 8 — as a zero-copy ``memoryview`` cast, or as a
    byteswapped ``array.array`` copy on big-endian hosts."""
    code = _I32 if itemsize == 4 else "d"
    view = buffer[offset:offset + itemsize * count]
    if sys.byteorder == "little":
        return view.cast(code)
    decoded = array(code)  # pragma: no cover - big-endian hosts only
    decoded.frombytes(view)
    decoded.byteswap()
    return decoded


def _to_tuple(column: Column) -> tuple:
    """One column as a plain tuple (memoryview and array.array both
    expose ``tolist``, which round-trips int32/float64 exactly)."""
    return tuple(column.tolist())


class MappedCTGraph:
    """A read-only, ``FlatCTGraph``-compatible view over one ``.ctg`` buffer.

    Every column attribute (``locations``, ``edge_offsets``,
    ``edge_children``, ``edge_probabilities``, ``source_probabilities``)
    is a zero-copy ``memoryview`` cast of the single backing buffer, so a
    :class:`~repro.queries.session.QuerySession` consumes the file
    without deserialising it: its python DPs read plain ints and floats
    from the casts, and the :class:`~repro.core.kernels.GraphViews`
    kernels under its numpy backend wrap the same bytes with
    ``np.asarray``.  ``stays`` decodes lazily into the
    canonical ``Optional[int]`` tuples (the one column whose ``-1``
    sentinel needs boxing); everything else stays on the mmap.

    The view quacks like a :class:`~repro.core.flatgraph.FlatCTGraph`
    everywhere queries look — ``duration``, ``num_nodes``/``num_edges``,
    ``level_size``, ``location_name``/``locations_at``, subscriptable
    columns — and ``materialize()`` converts to a real ``FlatCTGraph``
    (tuple equality with the original pins round-trips in the tests).
    ``close()`` drops the column views and unmaps the buffer; the view is
    also a context manager.
    """

    __slots__ = ("path", "backing", "location_names", "locations",
                 "edge_offsets", "edge_children", "edge_probabilities",
                 "source_probabilities", "stats", "_stay_columns",
                 "_stays", "_num_nodes", "_num_edges", "_mmap")

    def __init__(self, *, path, backing: str,
                 location_names: Tuple[str, ...],
                 locations: Tuple[Column, ...],
                 stay_columns: Tuple[Column, ...],
                 edge_offsets: Tuple[Column, ...],
                 edge_children: Tuple[Column, ...],
                 edge_probabilities: Tuple[Column, ...],
                 source_probabilities: Column,
                 num_nodes: int, num_edges: int, stats=None,
                 mapped: Optional[_mmap.mmap] = None) -> None:
        self.path = path
        self.backing = backing
        self.location_names = location_names
        self.locations = locations
        self.edge_offsets = edge_offsets
        self.edge_children = edge_children
        self.edge_probabilities = edge_probabilities
        self.source_probabilities = source_probabilities
        self.stats = stats
        self._stay_columns = stay_columns
        self._stays: Optional[Tuple[Tuple[Optional[int], ...], ...]] = None
        self._num_nodes = num_nodes
        self._num_edges = num_edges
        self._mmap = mapped

    # -- the FlatCTGraph surface ---------------------------------------
    @property
    def stays(self) -> Tuple[Tuple[Optional[int], ...], ...]:
        if self._stays is None:
            self._stays = tuple(
                tuple(None if stay == -1 else stay
                      for stay in column.tolist())
                for column in self._stay_columns)
        return self._stays

    @property
    def duration(self) -> int:
        return len(self.locations)

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def level_size(self, tau: int) -> int:
        if not 0 <= tau < len(self.locations):
            raise QueryError(
                f"timestep {tau} outside [0, {len(self.locations)})")
        return len(self.locations[tau])

    def location_name(self, lid: int) -> str:
        return self.location_names[lid]

    def locations_at(self, tau: int) -> Tuple[str, ...]:
        if not 0 <= tau < len(self.locations):
            raise QueryError(
                f"timestep {tau} outside [0, {len(self.locations)})")
        names = self.location_names
        return tuple(sorted({names[lid] for lid in self.locations[tau]}))

    def estimate_size_bytes(self) -> int:
        """The actual on-disk size of the backing ``.ctg`` file.

        Unlike the in-memory graphs' heuristic estimates this is exact —
        the view *is* the file — which is also what makes it the
        reference the advisor's ``estimate_ctg_bytes`` prediction is
        pinned against in the tests.
        """
        return os.path.getsize(self.path)

    def trajectory_probability(self, trajectory: Sequence[str]) -> float:
        """Conditioned probability of one concrete location sequence.

        The flat-column analogue of
        :meth:`~repro.core.ctgraph.CTGraph.trajectory_probability`: a
        forward pass that keeps only the nodes whose location matches the
        next element (several nodes per level may match — they differ in
        stay state).
        """
        if len(trajectory) != self.duration:
            raise QueryError(
                f"trajectory has {len(trajectory)} steps; graph duration "
                f"is {self.duration}")
        ids = {name: lid for lid, name in enumerate(self.location_names)}
        first = ids.get(trajectory[0])
        lids = self.locations[0]
        mass = {i: self.source_probabilities[i]
                for i in range(len(lids)) if lids[i] == first}
        for tau in range(self.duration - 1):
            target = ids.get(trajectory[tau + 1])
            offsets = self.edge_offsets[tau]
            children = self.edge_children[tau]
            probabilities = self.edge_probabilities[tau]
            next_lids = self.locations[tau + 1]
            step: Dict[int, float] = {}
            for i, amount in mass.items():
                for e in range(offsets[i], offsets[i + 1]):
                    child = children[e]
                    if next_lids[child] == target:
                        step[child] = (step.get(child, 0.0)
                                       + amount * probabilities[e])
            mass = step
            if not mass:
                return 0.0
        return sum(mass.values())

    def num_valid_trajectories(self) -> int:
        return self.materialize().num_valid_trajectories()

    def validate(self, tolerance: float = 1e-6) -> None:
        """Full Definition 4 validation (via a materialised copy)."""
        self.materialize().validate(tolerance)

    # -- conversion and lifecycle --------------------------------------
    def materialize(self) -> FlatCTGraph:
        """The canonical in-memory :class:`FlatCTGraph` of this view."""
        return FlatCTGraph(
            location_names=self.location_names,
            locations=tuple(_to_tuple(column) for column in self.locations),
            stays=self.stays,
            edge_offsets=tuple(_to_tuple(column)
                               for column in self.edge_offsets),
            edge_children=tuple(_to_tuple(column)
                                for column in self.edge_children),
            edge_probabilities=tuple(_to_tuple(column)
                                     for column in self.edge_probabilities),
            source_probabilities=_to_tuple(self.source_probabilities),
            stats=self.stats)

    def close(self) -> None:
        """Drop the column views and unmap the backing buffer.

        If a caller still holds a column view the unmap is deferred to
        garbage collection (closing the mmap would raise ``BufferError``
        while exports exist); the view itself is unusable either way.
        """
        self.locations = ()
        self.edge_offsets = ()
        self.edge_children = ()
        self.edge_probabilities = ()
        self.source_probabilities = ()
        self._stay_columns = ()
        mapped, self._mmap = self._mmap, None
        if mapped is not None:
            try:
                mapped.close()
            except BufferError:  # exported views outlive us; gc unmaps
                pass

    def __enter__(self) -> "MappedCTGraph":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"MappedCTGraph(duration={self.duration}, "
                f"nodes={self.num_nodes}, edges={self.num_edges}, "
                f"locations={len(self.location_names)}, "
                f"backing={self.backing!r})")


def _bounds_error(path, detail: str) -> StoreFormatError:
    return StoreFormatError(f"{path}: {detail}")


# ----------------------------------------------------------------------
# the rfid-ctg/ckpt@1 stream-checkpoint codec
# ----------------------------------------------------------------------
#: magic, version, flags, num_names, num_levels, payload_length,
#: checksum, 4 reserved bytes.
_CKPT_HEADER = struct.Struct("<8sIIIIQI4x")
#: One candidate-row entry: (location id, float64 probability).
_CKPT_ROW_ENTRY = struct.Struct("<Id")
#: One frontier-state head: (location id, stay or -1, departure count).
_CKPT_STATE_HEAD = struct.Struct("<IiI")
#: One TL departure: (absolute timestep, location id).
_CKPT_DEPARTURE = struct.Struct("<qI")
_CKPT_MASS = struct.Struct("<d")

#: One serialised frontier state:
#: ``(location_id, stay_or_None, ((time, location_id), ...), mass)``.
CheckpointState = Tuple[int, Optional[int], Tuple[Tuple[int, int], ...],
                        float]


@dataclasses.dataclass(frozen=True)
class CheckpointPayload:
    """The decoded content of one ``rfid-ctg/ckpt@1`` file.

    ``rows[i]`` is retained level ``i``'s candidate distribution as
    ``(location_id, probability)`` pairs in original dict-insertion
    order; ``frontiers[i]`` is the forward frontier *after* ingesting
    that level, as :data:`CheckpointState` records, also in insertion
    order.  Location ids index ``location_names``; ``meta`` is the JSON
    section verbatim (window, base, options, constraints — see
    :mod:`repro.streaming`).  All floats are raw little-endian doubles:
    a decode → re-encode round-trip is bit-identical.
    """

    meta: Dict
    location_names: Tuple[str, ...]
    rows: Tuple[Tuple[Tuple[int, float], ...], ...]
    frontiers: Tuple[Tuple[CheckpointState, ...], ...]


def write_stream_checkpoint(path, *, meta: Dict,
                            location_names: Sequence[str],
                            rows: Sequence[Sequence[Tuple[int, float]]],
                            frontiers: Sequence[Sequence[CheckpointState]],
                            ) -> int:
    """Write one streaming-session checkpoint; returns bytes written.

    The publish is atomic and durable: the payload is staged in a
    dot-prefixed sibling temp file, fsynced, then ``os.replace``d over
    ``path`` — a reader (including a resuming session) either sees the
    previous complete checkpoint or this one, never a torn write.
    Raises :class:`~repro.errors.StoreFormatError` on inconsistent
    inputs (length mismatches, out-of-range location ids).
    """
    if len(rows) != len(frontiers):
        raise StoreFormatError(
            f"checkpoint rows/frontiers disagree "
            f"({len(rows)} vs {len(frontiers)} levels)")
    num_names = len(location_names)

    def checked(lid: int) -> int:
        if not 0 <= lid < num_names:
            raise StoreFormatError(
                f"checkpoint references location id {lid} outside the "
                f"string table (size {num_names})")
        return lid

    chunks: List[bytes] = []
    meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    chunks.append(_LENGTH.pack(len(meta_blob)))
    chunks.append(meta_blob)
    for name in location_names:
        encoded = name.encode("utf-8")
        chunks.append(_LENGTH.pack(len(encoded)))
        chunks.append(encoded)
    for row, frontier in zip(rows, frontiers):
        chunks.append(_LENGTH.pack(len(row)))
        for lid, probability in row:
            chunks.append(_CKPT_ROW_ENTRY.pack(checked(lid), probability))
        chunks.append(_LENGTH.pack(len(frontier)))
        for lid, stay, departures, mass in frontier:
            chunks.append(_CKPT_STATE_HEAD.pack(
                checked(lid), -1 if stay is None else stay,
                len(departures)))
            for time, departed_lid in departures:
                chunks.append(_CKPT_DEPARTURE.pack(time,
                                                   checked(departed_lid)))
            chunks.append(_CKPT_MASS.pack(mass))
    payload = b"".join(chunks)
    header = _CKPT_HEADER.pack(CKPT_MAGIC, CKPT_VERSION, 0, num_names,
                               len(rows), len(payload),
                               zlib.crc32(payload))
    directory = os.path.dirname(os.fspath(path)) or "."
    temp = os.path.join(
        directory, f".{os.path.basename(os.fspath(path))}.{os.getpid()}.tmp")
    try:
        with open(temp, "wb") as fh:
            fh.write(header)
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temp, path)
    except BaseException:
        if os.path.exists(temp):
            os.unlink(temp)
        raise
    return len(header) + len(payload)


class _Cursor:
    """Sequential struct reads over one buffer with bounds checking."""

    def __init__(self, path, buffer: bytes, position: int) -> None:
        self._path = path
        self._buffer = buffer
        self.position = position

    def unpack(self, codec: struct.Struct) -> tuple:
        end = self.position + codec.size
        if end > len(self._buffer):
            raise _bounds_error(self._path, "truncated checkpoint payload")
        values = codec.unpack_from(self._buffer, self.position)
        self.position = end
        return values

    def take(self, count: int) -> bytes:
        end = self.position + count
        if end > len(self._buffer):
            raise _bounds_error(self._path, "truncated checkpoint payload")
        data = self._buffer[self.position:end]
        self.position = end
        return data


def read_stream_checkpoint(path) -> CheckpointPayload:
    """Decode a ``rfid-ctg/ckpt@1`` file written by
    :func:`write_stream_checkpoint`.

    The payload CRC-32 is always verified (checkpoints are small and a
    silently bit-rotted one would corrupt a resumed stream), raising
    :class:`~repro.errors.StoreChecksumError` on a mismatch;
    structural defects raise :class:`~repro.errors.StoreFormatError`.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _CKPT_HEADER.size:
        raise _bounds_error(path, f"truncated header ({len(data)} of "
                                  f"{_CKPT_HEADER.size} bytes)")
    (magic, version, _flags, num_names, num_levels, payload_length,
     checksum) = _CKPT_HEADER.unpack_from(data, 0)
    if magic != CKPT_MAGIC:
        raise _bounds_error(path, "not a stream checkpoint (bad magic)")
    if version != CKPT_VERSION:
        raise _bounds_error(
            path, f"unsupported checkpoint version {version} "
                  f"(this build reads version {CKPT_VERSION})")
    if len(data) < _CKPT_HEADER.size + payload_length:
        raise _bounds_error(
            path, f"truncated payload (file is {len(data)} bytes, header "
                  f"promises {_CKPT_HEADER.size + payload_length})")
    payload = data[_CKPT_HEADER.size:_CKPT_HEADER.size + payload_length]
    actual = zlib.crc32(payload)
    if actual != checksum:
        raise StoreChecksumError(
            f"{path}: checkpoint CRC-32 mismatch (recorded "
            f"{checksum:#010x}, computed {actual:#010x}) — the file was "
            "corrupted after it was written")
    cursor = _Cursor(path, payload, 0)
    (meta_length,) = cursor.unpack(_LENGTH)
    try:
        meta = json.loads(cursor.take(meta_length).decode("utf-8"))
    except ValueError as error:
        raise _bounds_error(path, f"malformed meta section ({error})")
    names: List[str] = []
    for _ in range(num_names):
        (length,) = cursor.unpack(_LENGTH)
        names.append(cursor.take(length).decode("utf-8"))
    rows: List[Tuple[Tuple[int, float], ...]] = []
    frontiers: List[Tuple[CheckpointState, ...]] = []
    for _ in range(num_levels):
        (row_count,) = cursor.unpack(_LENGTH)
        rows.append(tuple(cursor.unpack(_CKPT_ROW_ENTRY)
                          for _ in range(row_count)))
        (state_count,) = cursor.unpack(_LENGTH)
        frontier: List[CheckpointState] = []
        for _ in range(state_count):
            lid, stay, num_departures = cursor.unpack(_CKPT_STATE_HEAD)
            departures = tuple(cursor.unpack(_CKPT_DEPARTURE)
                               for _ in range(num_departures))
            (mass,) = cursor.unpack(_CKPT_MASS)
            frontier.append((lid, None if stay == -1 else stay,
                             departures, mass))
        frontiers.append(tuple(frontier))
    num = len(names)
    for level in rows:
        for lid, _probability in level:
            if not 0 <= lid < num:
                raise _bounds_error(
                    path, f"row references unknown location id {lid}")
    for level in frontiers:
        for lid, _stay, departures, _mass in level:
            if not 0 <= lid < num:
                raise _bounds_error(
                    path, f"frontier references unknown location id {lid}")
            for _time, departed_lid in departures:
                if not 0 <= departed_lid < num:
                    raise _bounds_error(
                        path, f"departure references unknown location id "
                              f"{departed_lid}")
    return CheckpointPayload(meta=meta, location_names=tuple(names),
                             rows=tuple(rows), frontiers=tuple(frontiers))


def load_ctg(path, *, mmap: bool = True, verify: bool = False
             ) -> MappedCTGraph:
    """Open a ``.ctg`` file as a :class:`MappedCTGraph` view.

    ``mmap=True`` (default) memory-maps the file and serves every column
    as a zero-copy view — the pages fault in on demand, so a cold load is
    header + section-table parsing, not a full read.  ``mmap=False``
    reads the file into one ``bytes`` object instead (same views, private
    memory).  Either way each column is a ``memoryview.cast`` of the
    buffer (an ``array.array`` copy on big-endian hosts), whether or not
    numpy is importable: the pure-python query DPs read plain ints and
    floats from it, and the numpy kernels wrap it zero-copy through
    ``np.asarray``.

    Structural validation (magic, version, every section offset/count
    against the payload) always runs and raises
    :class:`~repro.errors.StoreFormatError` on any violation — a
    truncated download fails here, not as an out-of-bounds read later.
    ``verify=True`` additionally checks the payload CRC-32 (reads the
    whole file) and raises :class:`~repro.errors.StoreChecksumError` on a
    mismatch.
    """
    with open(path, "rb") as fh:
        header = fh.read(HEADER_BYTES)
        if len(header) < HEADER_BYTES:
            raise _bounds_error(path, f"truncated header ({len(header)} of "
                                      f"{HEADER_BYTES} bytes)")
        (magic, version, flags, duration, num_names, num_nodes, num_edges,
         table_offset, payload_length, checksum) = _HEADER.unpack(header)
        if magic != CTG_MAGIC:
            raise _bounds_error(path, "not a .ctg file (bad magic)")
        if version != CTG_VERSION:
            raise _bounds_error(
                path, f"unsupported .ctg version {version} "
                      f"(this build reads version {CTG_VERSION})")
        if duration < 1:
            raise _bounds_error(path, "a .ctg graph needs at least one level")
        size = os.fstat(fh.fileno()).st_size
        end = HEADER_BYTES + payload_length
        if size < end:
            raise _bounds_error(
                path, f"truncated payload (file is {size} bytes, header "
                      f"promises {end})")
        mapped: Optional[_mmap.mmap] = None
        if mmap:
            mapped = _mmap.mmap(fh.fileno(), 0, access=_mmap.ACCESS_READ)
            buffer: Union[_mmap.mmap, bytes] = mapped
        else:
            fh.seek(0)
            buffer = fh.read()
    try:
        return _parse(path, buffer, mapped, "mmap" if mmap else "bytes",
                      flags=flags, duration=duration, num_names=num_names,
                      num_nodes=num_nodes, num_edges=num_edges,
                      table_offset=table_offset, end=end,
                      checksum=checksum, verify=verify)
    except Exception:
        if mapped is not None:
            try:
                mapped.close()
            except BufferError:
                # Column views decoded before the failure still export the
                # buffer; garbage collection unmaps once they die.
                pass
        raise


def _parse(path, buffer, mapped, backing: str, *, flags: int, duration: int,
           num_names: int, num_nodes: int, num_edges: int, table_offset: int,
           end: int, checksum: int, verify: bool) -> MappedCTGraph:
    if verify:
        actual = zlib.crc32(memoryview(buffer)[HEADER_BYTES:end])
        if actual != checksum:
            raise StoreChecksumError(
                f"{path}: payload CRC-32 mismatch (recorded "
                f"{checksum:#010x}, computed {actual:#010x}) — the file "
                "was corrupted after it was written")
    # -- string table --------------------------------------------------
    position = HEADER_BYTES
    names: List[str] = []
    for _ in range(num_names):
        if position + _LENGTH.size > end:
            raise _bounds_error(path, "truncated string table")
        (length,) = _LENGTH.unpack_from(buffer, position)
        position += _LENGTH.size
        if position + length > end:
            raise _bounds_error(path, "truncated string table")
        names.append(bytes(buffer[position:position + length])
                     .decode("utf-8"))
        position += length
    position += -position % _ALIGN
    # -- stats section -------------------------------------------------
    stats = None
    if flags & _FLAG_STATS:
        if position + _LENGTH.size > end:
            raise _bounds_error(path, "truncated stats section")
        (length,) = _LENGTH.unpack_from(buffer, position)
        position += _LENGTH.size
        if position + length > end:
            raise _bounds_error(path, "truncated stats section")
        from repro.core.algorithm import CleaningStats  # lazy

        try:
            fields = json.loads(bytes(buffer[position:position + length]))
            stats = CleaningStats(**fields)
        except (ValueError, TypeError) as error:
            raise _bounds_error(path, f"malformed stats section ({error})")
    # -- section table -------------------------------------------------
    plan = list(_section_plan(duration))
    table_end = table_offset + len(plan) * _SECTION_ENTRY.size
    if not HEADER_BYTES <= table_offset <= table_end <= end:
        raise _bounds_error(path, "section table out of bounds")
    entries = [_SECTION_ENTRY.unpack_from(
                   buffer, table_offset + i * _SECTION_ENTRY.size)
               for i in range(len(plan))]
    whole = memoryview(buffer)
    columns: List[Column] = []
    for (kind, tau, itemsize), (offset, count) in zip(plan, entries):
        if not (HEADER_BYTES <= offset
                and offset + count * itemsize <= end):
            raise _bounds_error(
                path, f"section {kind}[{tau}] out of bounds "
                      f"(offset {offset}, count {count})")
        columns.append(_decode(whole, offset, count, itemsize))
    locations = tuple(columns[2 * tau] for tau in range(duration))
    stay_columns = tuple(columns[2 * tau + 1] for tau in range(duration))
    base = 2 * duration
    edge_offsets = tuple(columns[base + 3 * tau]
                         for tau in range(duration - 1))
    edge_children = tuple(columns[base + 3 * tau + 1]
                          for tau in range(duration - 1))
    edge_probabilities = tuple(columns[base + 3 * tau + 2]
                               for tau in range(duration - 1))
    source = columns[-1]
    # -- cheap structural cross-checks (full checks: ``validate()``) ---
    if sum(len(level) for level in locations) != num_nodes:
        raise _bounds_error(path, "node sections disagree with the header")
    if sum(len(children) for children in edge_children) != num_edges:
        raise _bounds_error(path, "edge sections disagree with the header")
    if len(source) != len(locations[0]):
        raise _bounds_error(
            path, "source distribution length disagrees with level 0")
    for tau in range(duration):
        if len(stay_columns[tau]) != len(locations[tau]):
            raise _bounds_error(path, f"stay row {tau} length disagrees")
        if tau == duration - 1:
            continue
        if (len(edge_offsets[tau]) != len(locations[tau]) + 1
                or len(edge_children[tau]) != len(edge_probabilities[tau])
                or (len(edge_offsets[tau]) > 0
                    and edge_offsets[tau][-1] != len(edge_children[tau]))):
            raise _bounds_error(path, f"CSR sections of level {tau} "
                                      "are inconsistent")
    return MappedCTGraph(
        path=path, backing=backing, location_names=tuple(names),
        locations=locations, stay_columns=stay_columns,
        edge_offsets=edge_offsets, edge_children=edge_children,
        edge_probabilities=edge_probabilities, source_probabilities=source,
        num_nodes=num_nodes, num_edges=num_edges, stats=stats,
        mapped=mapped)


# ----------------------------------------------------------------------
# shard manifest (rfid-ctg/shards@1)
# ----------------------------------------------------------------------
#: File name of the shard manifest a sharded ``rfid-ctg serve`` writes
#: into its checkpoint directory.
SHARD_MANIFEST = "shards.json"

_SHARD_FORMAT = "rfid-ctg/shards@1"


def read_shard_manifest(directory) -> Optional[int]:
    """The shard count recorded in ``directory``, or ``None`` if no
    manifest exists (the flat single-process layout).

    Raises :class:`~repro.errors.StoreFormatError` when the file exists
    but is not a valid ``rfid-ctg/shards@1`` manifest.
    """
    path = os.path.join(os.fspath(directory), SHARD_MANIFEST)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as error:
        raise StoreFormatError(
            f"{path}: unreadable shard manifest ({error})") from None
    shards = payload.get("shards") if isinstance(payload, dict) else None
    if (not isinstance(payload, dict)
            or payload.get("format") != _SHARD_FORMAT
            or not isinstance(shards, int) or shards < 1):
        raise StoreFormatError(
            f"{path}: not a {_SHARD_FORMAT} manifest")
    return shards


def ensure_shard_manifest(directory, shards: int) -> None:
    """Pin ``directory`` to a shard layout, refusing a mismatched one.

    A checkpoint directory written with ``--shards N`` keeps each
    worker's files under ``shard-00`` .. ``shard-NN`` subdirectories; a
    resume under a different shard count would silently find none of
    them.  This helper makes the layout explicit: for ``shards > 1`` it
    records the count in :data:`SHARD_MANIFEST` (creating the directory
    if needed), and for any count it raises
    :class:`~repro.errors.StoreFormatError` when an existing manifest
    disagrees.  A directory without a manifest is the flat ``shards == 1``
    layout, which stays untouched for compatibility with pre-shard
    checkpoints.
    """
    recorded = read_shard_manifest(directory)
    if recorded is not None and recorded != shards:
        raise StoreFormatError(
            f"{os.fspath(directory)}: checkpoint directory was written "
            f"with --shards {recorded}, not --shards {shards}; resume "
            "with the recorded shard count (or point at a fresh "
            "directory)")
    if shards > 1 and recorded is None:
        os.makedirs(os.fspath(directory), exist_ok=True)
        path = os.path.join(os.fspath(directory), SHARD_MANIFEST)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({"format": _SHARD_FORMAT, "shards": shards}, handle)
        os.replace(tmp, path)
