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
:func:`load_ctg` casts the buffer once per dtype and serves each column
as a slice of that ``memoryview`` cast, which the query DPs index as
plain ints and floats.
The CRC-32 makes corruption detectable (:func:`load_ctg` verifies it on
``verify=True``).
Structural bounds — magic, version, section offsets, alignment and
counts against the payload and the header — are *always* validated at
load, so a truncated or misaligned file fails with a typed
:class:`~repro.errors.StoreFormatError` instead of an out-of-bounds or
misread column later.

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
from bisect import bisect_right
from itertools import accumulate, chain, islice, repeat
from operator import add, floordiv, mod, mul
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

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
    "write_mapped_ctg",
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

#: One column of a loaded graph: a ``memoryview`` cast, or a byteswapped
#: ``array.array`` copy (big-endian hosts only).
Column = Union[memoryview, array]


def _itemsizes(duration: int) -> Tuple[int, ...]:
    """The item size of every section, in canonical order: per level
    ``loc`` and ``stay`` (int32), per edge level ``off`` and ``child``
    (int32) and ``prob`` (float64), then ``source`` (float64)."""
    return (4,) * (2 * duration) + (4, 4, 8) * (duration - 1) + (8,)


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
#: Payload bytes the writer joins into one chunk before it writes them
#: out: a small file goes out in one write, and a large one holds about
#: this much beyond its own columns.  A section larger than this is a
#: chunk of its own.
_SPOOL_BYTES = 1 << 20
#: Zero padding by length, up to the next 8-byte boundary.
_PADS = tuple(bytes(length) for length in range(_ALIGN))
#: Level containers whose whole column kind converts in one pack.
_PLAIN = frozenset((tuple, list))
#: The little-endian ``struct`` code of each column's array typecode.
_STRUCT_CODES = {_I32: "i", "d": "d"}


def _native(values: object, code: str) -> bool:
    """Whether ``values`` already holds the column's little-endian bytes:
    a ``memoryview`` column of a loaded ``.ctg`` on a little-endian host,
    whose bytes are copied as they are instead of item by item."""
    return (isinstance(values, memoryview) and values.format == code
            and sys.byteorder == "little")


def _level_view(level, code: str, stays: bool) -> memoryview:
    """One level of a column as a typed view of its little-endian bytes:
    a native memoryview passes through, anything else converts through
    ``array``."""
    if _native(level, code):
        view = level
    else:
        encoded = array(code, [-1 if stay is None else stay
                               for stay in level] if stays else level)
        if sys.byteorder == "big":  # pragma: no cover - big-endian hosts only
            encoded.byteswap()
        view = memoryview(encoded)
    if view.nbytes != view.itemsize * len(level):
        raise StoreFormatError("a column's length disagrees with its bytes")
    return view


def _kind_views(columns, code: str, stays: bool = False
                ) -> Iterator[memoryview]:
    """Every level of one column kind as a typed view, in level order.

    Tuple and list levels convert together: one ``struct.pack`` of the
    whole kind, little-endian on any host, that each level's view
    slices.  Any other level (a mapped memoryview, an ``array.array``)
    converts on its own, when its section is written, so a large graph
    of buffers holds one level's conversion at a time.
    """
    if not set(map(type, columns)) <= _PLAIN:
        return map(_level_view, columns, repeat(code), repeat(stays))
    values = chain.from_iterable(columns)
    items = (tuple(values) if not stays
             else [-1 if stay is None else stay for stay in values])
    view = memoryview(struct.pack(f"<{len(items)}{_STRUCT_CODES[code]}",
                                  *items)).cast(code)
    bounds = list(accumulate(map(len, columns), initial=0))
    return map(view.__getitem__, map(slice, bounds, bounds[1:]))


def _write_chunk(fh, chunk: bytes, crc: int) -> int:
    """Write one chunk of the payload; returns the running CRC-32.  The
    chunk dies on return, before the next one is joined."""
    fh.write(chunk)
    return zlib.crc32(chunk, crc)


def write_ctg(path, *, location_names: Sequence[str],
              locations: Sequence[Sequence[int]],
              stays: Sequence[Sequence[Optional[int]]],
              edge_offsets: Sequence[Sequence[int]],
              edge_children: Sequence[Sequence[int]],
              edge_probabilities: Sequence[Sequence[float]],
              source_probabilities: Sequence[float],
              stats=None) -> int:
    """Write one graph's columns as a ``.ctg`` file; returns bytes written.

    Each column may be a plain sequence (tuple/list), an ``array.array``,
    a ``memoryview`` or any other sized iterable of numbers.  ``stays``
    rows may hold ``None`` (encoded as ``-1``).

    Tuple and list columns convert once per column kind (see
    :func:`_kind_views`).  The layout — every section's count, padding
    and offset, and so the section table — follows from the column
    lengths before a byte is written.  The payload then goes out in
    canonical order, joined into chunks of about ``_SPOOL_BYTES`` whose
    CRC-32 is taken as they go, and the header, which carries the CRC,
    is written last over a placeholder: no copy of the whole payload is
    ever held.  A write that fails part-way leaves a file whose zeroed
    header fails to load.
    """
    _check_levels(locations, stays, edge_offsets, edge_children,
                  edge_probabilities)
    with open(path, "wb") as fh:
        return _encode(fh, location_names, locations, stays, edge_offsets,
                       edge_children, edge_probabilities,
                       source_probabilities, stats).end


def write_mapped_ctg(path, *, location_names: Sequence[str],
                     locations: Sequence[Sequence[int]],
                     stays: Sequence[Sequence[Optional[int]]],
                     edge_offsets: Sequence[Sequence[int]],
                     edge_children: Sequence[Sequence[int]],
                     edge_probabilities: Sequence[Sequence[float]],
                     source_probabilities: Sequence[float],
                     stats=None) -> "MappedCTGraph":
    """Write a ``.ctg`` exactly as :func:`write_ctg` does and return the
    :class:`MappedCTGraph` view of it, as ``load_ctg(path, mmap=True)``
    would.

    The file is written through a read-write descriptor that is then
    mapped, and the columns are sliced from the offsets and counts the
    encoder planned: the file is not opened again by path and the layout
    the writer has just produced is not re-validated.  The view keeps
    its mapping across a rename of the file (the store's atomic
    publish).  This is how the engines' ``materialize="store"`` builds
    hand back the graph they wrote.
    """
    _check_levels(locations, stays, edge_offsets, edge_children,
                  edge_probabilities)
    with open(path, "w+b") as fh:
        layout = _encode(fh, location_names, locations, stays, edge_offsets,
                         edge_children, edge_probabilities,
                         source_probabilities, stats)
        fh.flush()
        mapped = _mmap.mmap(fh.fileno(), 0, access=_mmap.ACCESS_READ)
    return _view(path, mapped, mapped, "mmap", tuple(location_names), stats,
                 layout.offsets, layout.counts, layout.num_nodes,
                 layout.num_edges, layout.end)


def _check_levels(locations, stays, edge_offsets, edge_children,
                  edge_probabilities) -> None:
    """Reject level lists that cannot form a graph, before any file is
    created."""
    duration = len(locations)
    if duration < 1:
        raise StoreFormatError("a .ctg graph needs at least one level")
    if not (len(stays) == duration
            and len(edge_offsets) == duration - 1
            and len(edge_children) == duration - 1
            and len(edge_probabilities) == duration - 1):
        raise StoreFormatError("level array lengths disagree")


class _Layout(NamedTuple):
    """What the encoder planned and wrote: the file's length, every
    section's absolute offset and item count in canonical order, and the
    header's totals."""

    end: int
    offsets: List[int]
    counts: List[int]
    num_nodes: int
    num_edges: int


def _encode(fh, location_names, locations, stays, edge_offsets,
            edge_children, edge_probabilities, source_probabilities,
            stats) -> _Layout:
    """Write one graph's ``.ctg`` bytes to the binary file ``fh``, open
    for writing at offset 0 (see :func:`write_ctg`)."""
    duration = len(locations)
    num_nodes = sum(map(len, locations))
    num_edges = sum(map(len, edge_children))
    head = bytearray()
    for name in location_names:
        encoded = name.encode("utf-8")
        head += _LENGTH.pack(len(encoded))
        head += encoded
    head += _PADS[-len(head) % _ALIGN]
    flags = 0
    if stats is not None:
        flags |= _FLAG_STATS
        stats_blob = json.dumps(
            {field.name: getattr(stats, field.name)
             for field in dataclasses.fields(stats)},
            sort_keys=True).encode("utf-8")
        head += _LENGTH.pack(len(stats_blob))
        head += stats_blob
        head += _PADS[-len(head) % _ALIGN]
    # -- the layout, in canonical section order -------------------------
    counts = list(chain(
        chain.from_iterable(zip(map(len, locations), map(len, stays))),
        chain.from_iterable(zip(map(len, edge_offsets),
                                map(len, edge_children),
                                map(len, edge_probabilities))),
        (len(source_probabilities),)))
    sizes = list(map(mul, counts, _itemsizes(duration)))
    pads = [-size % _ALIGN for size in sizes]
    positions = list(accumulate(map(add, sizes, pads),
                                initial=HEADER_BYTES + len(head)))
    table = struct.pack(f"<{2 * len(counts)}Q",
                        *chain.from_iterable(zip(positions, counts)))
    table_offset = positions[-1]
    end = table_offset + len(table)
    # -- the payload -----------------------------------------------------
    sections = chain(
        chain.from_iterable(zip(_kind_views(locations, _I32),
                                _kind_views(stays, _I32, stays=True))),
        chain.from_iterable(zip(_kind_views(edge_offsets, _I32),
                                _kind_views(edge_children, _I32),
                                _kind_views(edge_probabilities, "d"))),
        _kind_views((source_probabilities,), "d"))
    pieces = chain((head,), chain.from_iterable(
        zip(sections, map(_PADS.__getitem__, pads))), (table,))
    piece_ends = list(accumulate(chain((len(head),), chain.from_iterable(
        zip(sizes, pads)), (len(table),))))
    crc = 0
    fh.write(bytes(HEADER_BYTES))  # rewritten once the CRC is known
    done = 0
    while done < len(piece_ends):
        # The pieces that end within _SPOOL_BYTES, and at least one.
        limit = (piece_ends[done - 1] if done else 0) + _SPOOL_BYTES
        stop = max(done + 1, bisect_right(piece_ends, limit, done))
        crc = _write_chunk(fh, b"".join(islice(pieces, stop - done)), crc)
        done = stop
    fh.seek(0)
    fh.write(_HEADER.pack(
        CTG_MAGIC, CTG_VERSION, flags, duration, len(location_names),
        num_nodes, num_edges, table_offset, end - HEADER_BYTES, crc))
    return _Layout(end, positions[:-1], counts, num_nodes, num_edges)


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
class _Swapped:  # pragma: no cover - big-endian hosts only
    """A big-endian host's stand-in for a cast of the buffer: each slice
    is a byteswapped ``array.array`` copy of the little-endian items."""

    def __init__(self, whole: memoryview, code: str) -> None:
        self.whole = whole
        self.code = code

    def __getitem__(self, items: slice) -> array:
        column = array(self.code)
        size = column.itemsize
        column.frombytes(self.whole[items.start * size:items.stop * size])
        column.byteswap()
        return column


def _slices(view, itemsize: int, offsets: Sequence[int],
            counts: Sequence[int]) -> Tuple[Column, ...]:
    """The columns of ``counts[i]`` items at byte ``offsets[i]`` of a
    cast of the buffer (each offset a multiple of ``itemsize``)."""
    starts = list(map(floordiv, offsets, repeat(itemsize)))
    return tuple(map(view.__getitem__,
                     map(slice, starts, map(add, starts, counts))))


def _section_error(path, duration: int, offsets: Sequence[int],
                   counts: Sequence[int], itemsizes: Sequence[int],
                   end: int) -> StoreFormatError:
    """The error naming the first section out of bounds or misaligned."""
    names = ([f"{kind}[{tau}]" for tau in range(duration)
              for kind in ("loc", "stay")]
             + [f"{kind}[{tau}]" for tau in range(duration - 1)
                for kind in ("off", "child", "prob")]
             + ["source[0]"])
    for name, offset, count, size in zip(names, offsets, counts, itemsizes):
        if offset % size:
            return _bounds_error(
                path, f"section {name} at offset {offset} is not aligned "
                      f"to its {size}-byte items")
        if offset < HEADER_BYTES or offset + count * size > end:
            return _bounds_error(
                path, f"section {name} out of bounds "
                      f"(offset {offset}, count {count})")
    raise AssertionError("no section is out of bounds")  # pragma: no cover


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
    without deserialising it: its DPs read plain ints and floats from
    the casts.  ``stays`` decodes lazily into the
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
    buffer (an ``array.array`` copy on big-endian hosts), from which the
    query DPs read plain ints and floats.

    Structural validation (magic, version, every section's offset,
    alignment and count against the payload and the header, the CSR
    shape of every edge level) always runs, over the whole section table
    at once, and raises :class:`~repro.errors.StoreFormatError` naming
    the path on any violation — a truncated or misaligned file fails
    here, not as an out-of-bounds or misread column later.
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
    last = duration - 1
    sections = 5 * duration - 2  # the canonical order of _itemsizes
    table_end = table_offset + sections * _SECTION_ENTRY.size
    if not HEADER_BYTES <= table_offset <= table_end <= end:
        raise _bounds_error(path, "section table out of bounds")
    if table_offset % _ALIGN:
        raise _bounds_error(
            path, f"section table offset {table_offset} is not "
                  f"{_ALIGN}-byte aligned")
    itemsizes = _itemsizes(duration)
    entries = struct.unpack_from(f"<{2 * sections}Q", buffer, table_offset)
    offsets, counts = entries[0::2], entries[1::2]
    # -- bounds and alignment, over the whole table --------------------
    # The columns are slices of casts of the buffer up to its last whole
    # 8 bytes, so every section must end there.
    limit = end - end % _ALIGN
    if (min(offsets) < HEADER_BYTES
            or max(map(add, offsets, map(mul, counts, itemsizes))) > limit
            or any(map(mod, offsets, itemsizes))):
        raise _section_error(path, duration, offsets, counts, itemsizes,
                             limit)
    nodes = 2 * duration
    edges = nodes + 3 * last
    loc_counts, stay_counts = counts[0:nodes:2], counts[1:nodes:2]
    off_counts = counts[nodes:edges:3]
    child_counts = counts[nodes + 1:edges:3]
    # -- counts (full structural checks: ``validate()``) ---------------
    if sum(loc_counts) != num_nodes:
        raise _bounds_error(path, "node sections disagree with the header")
    if sum(child_counts) != num_edges:
        raise _bounds_error(path, "edge sections disagree with the header")
    if counts[-1] != loc_counts[0]:
        raise _bounds_error(
            path, "source distribution length disagrees with level 0")
    if stay_counts != loc_counts:
        tau = next(tau for tau in range(duration)
                   if stay_counts[tau] != loc_counts[tau])
        raise _bounds_error(path, f"stay row {tau} length disagrees")
    view = _view(path, buffer, mapped, backing, tuple(names), stats,
                 offsets, counts, num_nodes, num_edges, end)
    prob_counts = counts[nodes + 2:edges:3]
    edge_offsets = view.edge_offsets
    # Short-circuits: a CSR column is read only once its count is right.
    if (off_counts != tuple(count + 1 for count in loc_counts[:last])
            or prob_counts != child_counts
            or tuple(column[-1] for column in edge_offsets)
            != child_counts):
        tau = next(tau for tau in range(last)
                   if off_counts[tau] != loc_counts[tau] + 1
                   or prob_counts[tau] != child_counts[tau]
                   or edge_offsets[tau][-1] != child_counts[tau])
        raise _bounds_error(path, f"CSR sections of level {tau} "
                                  "are inconsistent")
    return view


def _view(path, buffer, mapped, backing: str, names: Tuple[str, ...], stats,
          offsets: Sequence[int], counts: Sequence[int], num_nodes: int,
          num_edges: int, end: int) -> MappedCTGraph:
    """The view whose columns are the sections at byte ``offsets`` with
    ``counts`` items, in canonical order, of a ``.ctg`` buffer ``end``
    bytes long; the sections must lie in bounds and be aligned."""
    nodes = 2 * ((len(counts) + 2) // 5)  # 5 * duration - 2 sections
    edges = len(counts) - 1
    # One cast of the buffer per dtype; every column slices one of them.
    whole = memoryview(buffer)[:end - end % _ALIGN]
    if sys.byteorder == "little":
        i32, f64 = whole.cast(_I32), whole.cast("d")
    else:  # pragma: no cover - big-endian hosts only
        i32, f64 = _Swapped(whole, _I32), _Swapped(whole, "d")
    return MappedCTGraph(
        path=path, backing=backing, location_names=names,
        locations=_slices(i32, 4, offsets[0:nodes:2], counts[0:nodes:2]),
        stay_columns=_slices(i32, 4, offsets[1:nodes:2], counts[1:nodes:2]),
        edge_offsets=_slices(i32, 4, offsets[nodes:edges:3],
                             counts[nodes:edges:3]),
        edge_children=_slices(i32, 4, offsets[nodes + 1:edges:3],
                              counts[nodes + 1:edges:3]),
        edge_probabilities=_slices(f64, 8, offsets[nodes + 2:edges:3],
                                   counts[nodes + 2:edges:3]),
        source_probabilities=_slices(f64, 8, offsets[-1:], counts[-1:])[0],
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
