"""The flat (columnar) form of a conditioned-trajectory graph.

A :class:`FlatCTGraph` stores exactly the information queries consume —
interned location ids, per-level ``location``/``stay`` arrays, per-level
CSR edge arrays and the conditioned source distribution — without one
Python object per node.  It is the query substrate of
:class:`repro.queries.session.QuerySession`: every query DP becomes index
arithmetic over tuples instead of attribute access over a ``CTNode`` web.

Two producers, one representation:

* :meth:`repro.core.ctgraph.CTGraph.to_flat` converts a materialised node
  graph;
* ``CleaningOptions(materialize="flat")`` makes both cleaning engines emit
  the flat form directly — the compact engine skips ``CTNode``
  materialisation entirely (its backward sweep already lives on flat
  arrays).

A third form shares the representation without owning it: the binary
``.ctg`` store (:mod:`repro.store`) serialises exactly these columns, and
:class:`repro.store.format.MappedCTGraph` serves them back as zero-copy
slices over one mmap behind the same duck surface — consumers written
against ``FlatCTGraph`` (``QuerySession``, the exporters) accept either
interchangeably.

The two routes are **bit-identical**: same interning order (first
appearance, level-major), same per-level node order (the order the
reference builder files surviving nodes), same CSR edge order (edge
insertion order) and the same conditioned floats.  The hypothesis suite
in ``tests/test_queries_flat.py`` pins this.

What the flat form deliberately drops: the ``departures`` (``TL``)
tuples and the parent lists — construction bookkeeping no query reads.
That, plus replacing per-node dicts with shared tuples, is where the
memory win of ``estimate_size_bytes`` comes from (``docs/perf.md``).

CSR layout, per edge level ``tau`` (levels ``0 .. duration - 2``)::

    edge_offsets[tau]        len(level tau) + 1 monotone ints
    edge_children[tau]       child indices, local to level tau + 1
    edge_probabilities[tau]  conditioned edge probabilities

The edges of node ``i`` of level ``tau`` are the slice
``edge_offsets[tau][i] : edge_offsets[tau][i + 1]`` of the two parallel
arrays, in the same order the node-graph ``edges`` dict iterates.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import GraphInvariantError, QueryError

if TYPE_CHECKING:
    from repro.core.algorithm import CleaningStats

__all__ = ["FlatCTGraph"]


@dataclass(frozen=True)
class FlatCTGraph:
    """A finished ct-graph as interned, columnar arrays (module docstring).

    Equality compares the full structure — names, levels, CSR arrays and
    source distribution — but not ``stats`` (timings never repeat), so two
    bit-identical cleanings compare equal however they were produced.
    The dataclass is frozen and all fields are plain tuples: instances
    pickle cheaply (the batch runtime ships them between processes) and
    are safe to share across threads.
    """

    #: Interned location names; array entries hold indices into this.
    location_names: Tuple[str, ...]
    #: Per level, the location id of every node.
    locations: Tuple[Tuple[int, ...], ...]
    #: Per level, every node's latency stay counter (``None`` = no bound).
    stays: Tuple[Tuple[Optional[int], ...], ...]
    #: Per edge level, the CSR row offsets (``len(level) + 1`` entries).
    edge_offsets: Tuple[Tuple[int, ...], ...]
    #: Per edge level, child indices local to the next level.
    edge_children: Tuple[Tuple[int, ...], ...]
    #: Per edge level, the conditioned edge probabilities.
    edge_probabilities: Tuple[Tuple[float, ...], ...]
    #: The conditioned source distribution (level-0 node order).
    source_probabilities: Tuple[float, ...]
    #: Construction counters, ``None`` for hand-built graphs.
    stats: Optional["CleaningStats"] = field(default=None, compare=False)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def duration(self) -> int:
        """The number of timesteps (levels)."""
        return len(self.locations)

    def level_size(self, tau: int) -> int:
        """How many nodes level ``tau`` holds."""
        if not 0 <= tau < len(self.locations):
            raise QueryError(
                f"timestep {tau} outside [0, {len(self.locations)})")
        return len(self.locations[tau])

    @property
    def num_nodes(self) -> int:
        return sum(len(level) for level in self.locations)

    @property
    def num_edges(self) -> int:
        return sum(len(children) for children in self.edge_children)

    def location_name(self, lid: int) -> str:
        return self.location_names[lid]

    def locations_at(self, tau: int) -> Tuple[str, ...]:
        """Distinct locations present at timestep ``tau`` (sorted)."""
        if not 0 <= tau < len(self.locations):
            raise QueryError(
                f"timestep {tau} outside [0, {len(self.locations)})")
        names = self.location_names
        return tuple(sorted({names[lid] for lid in self.locations[tau]}))

    # ------------------------------------------------------------------
    # trajectories
    # ------------------------------------------------------------------
    def num_valid_trajectories(self) -> int:
        """How many source->target paths (= valid trajectories) exist."""
        counts = [1] * len(self.locations[-1])
        for tau in range(self.duration - 2, -1, -1):
            offsets = self.edge_offsets[tau]
            children = self.edge_children[tau]
            counts = [sum(counts[children[e]]
                          for e in range(offsets[i], offsets[i + 1]))
                      for i in range(len(self.locations[tau]))]
        return sum(counts)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def validate(self, tolerance: float = 1e-6) -> None:
        """Check the Definition 4 invariants on the flat arrays.

        The columnar mirror of :meth:`CTGraph.validate`: consistent array
        lengths, a normalised source distribution, normalised outgoing
        rows for every non-target node, in-range child indices.
        """
        duration = self.duration
        if duration == 0:
            raise GraphInvariantError("a ct-graph needs at least one level")
        if not (len(self.stays) == duration
                and len(self.edge_offsets) == duration - 1
                and len(self.edge_children) == duration - 1
                and len(self.edge_probabilities) == duration - 1):
            raise GraphInvariantError("level array lengths disagree")
        if len(self.source_probabilities) != len(self.locations[0]):
            raise GraphInvariantError(
                "source distribution length disagrees with level 0")
        total = math.fsum(self.source_probabilities)
        if abs(total - 1.0) > tolerance:
            raise GraphInvariantError(
                f"source probabilities sum to {total}")
        for tau in range(duration):
            count = len(self.locations[tau])
            if len(self.stays[tau]) != count:
                raise GraphInvariantError(f"stay row {tau} length disagrees")
            for lid in self.locations[tau]:
                if not 0 <= lid < len(self.location_names):
                    raise GraphInvariantError(
                        f"level {tau} holds unknown location id {lid}")
            if tau == duration - 1:
                continue
            offsets = self.edge_offsets[tau]
            children = self.edge_children[tau]
            probabilities = self.edge_probabilities[tau]
            if len(offsets) != count + 1 or offsets[0] != 0 \
                    or offsets[-1] != len(children) \
                    or len(children) != len(probabilities):
                raise GraphInvariantError(f"CSR arrays of level {tau} "
                                          "are inconsistent")
            next_count = len(self.locations[tau + 1])
            for child in children:
                if not 0 <= child < next_count:
                    raise GraphInvariantError(
                        f"level {tau} edge points at child {child} outside "
                        f"level {tau + 1}")
            for i in range(count):
                start, end = offsets[i], offsets[i + 1]
                if end <= start:
                    raise GraphInvariantError(
                        f"non-target node {i} of level {tau} has no "
                        "successors")
                row_total = math.fsum(probabilities[start:end])
                if abs(row_total - 1.0) > tolerance:
                    raise GraphInvariantError(
                        f"outgoing probabilities of node {i} at level "
                        f"{tau} sum to {row_total}")

    def estimate_size_bytes(self) -> int:
        """A size estimate of the flat graph (compare with the node form).

        Counts the tuples actually held (8 bytes per slot included in
        ``sys.getsizeof``) plus 24 bytes per boxed edge/source float.
        Small ints (location ids, most offsets) are interpreter-cached,
        so slots dominate their cost.  Like
        :meth:`CTGraph.estimate_size_bytes`, only ratios are meaningful.
        """
        total = sys.getsizeof(self.location_names)
        total += sum(sys.getsizeof(name) for name in self.location_names)
        for group in (self.locations, self.stays, self.edge_offsets,
                      self.edge_children, self.edge_probabilities):
            total += sys.getsizeof(group)
            total += sum(sys.getsizeof(row) for row in group)
        total += 24 * sum(len(row) for row in self.edge_probabilities)
        total += sys.getsizeof(self.source_probabilities)
        total += 24 * len(self.source_probabilities)
        return total

    def __repr__(self) -> str:
        return (f"FlatCTGraph(duration={self.duration}, "
                f"nodes={self.num_nodes}, edges={self.num_edges}, "
                f"locations={len(self.location_names)})")


def _intern(name: str, ids: Dict[str, int], names: List[str]) -> int:
    lid = ids.get(name)
    if lid is None:
        lid = len(names)
        ids[name] = lid
        names.append(name)
    return lid
