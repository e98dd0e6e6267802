"""The conditioned-trajectory graph (Section 4, Definition 4).

A :class:`CTGraph` is a levelled DAG: level ``tau`` holds the location nodes
of timestep ``tau``; edges only connect consecutive levels and only pairs
``(n, n')`` where ``n'`` is a successor of ``n`` (Definition 3).  After
Algorithm 1 finishes:

* source->target paths correspond one-to-one to the valid trajectories;
* each non-target node's outgoing edge probabilities form a distribution;
* the source-node probabilities form a distribution;
* the probability of a path — source probability times the product of its
  edge probabilities — equals the conditioned probability
  ``p*(t | Theta ∧ IC)`` of the corresponding trajectory.

The graph doubles as the query substrate: it converts once to its flat
form and stay and trajectory queries run as dynamic programs over that
form's levels (see :mod:`repro.queries`).
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.flatgraph import FlatCTGraph, _intern
from repro.core.lsequence import Trajectory
from repro.core.nodes import Departures
from repro.errors import GraphInvariantError, QueryError

if TYPE_CHECKING:
    from repro.core.algorithm import CleaningStats
    from repro.queries.session import QuerySession

__all__ = ["CTNode", "CTGraph", "NodeWebGraph"]


class CTNode:
    """One location node ``(tau, location, stay, departures)`` of a ct-graph.

    ``edges`` maps each successor node to the (conditioned) probability of
    taking that edge; ``parents`` lists the predecessor nodes.  Mutable by
    design — Algorithm 1 builds the graph in place; user code should treat
    finished nodes as read-only.
    """

    __slots__ = ("tau", "location", "stay", "departures", "edges", "parents",
                 "_location_index")

    def __init__(self, tau: int, location: str, stay: Optional[int],
                 departures: Departures) -> None:
        self.tau = tau
        self.location = location
        self.stay = stay
        self.departures = departures
        self.edges: Dict["CTNode", float] = {}
        self.parents: List["CTNode"] = []
        # Lazily built query index: location -> (child, probability).  Holds
        # the edges dict it was built from so a *replaced* edges dict (the
        # backward pass swaps it wholesale) invalidates the cache.
        self._location_index: Optional[
            Tuple[Dict["CTNode", float],
                  Dict[str, Tuple["CTNode", float]]]] = None

    def _edges_by_location(self) -> Dict[str, Tuple["CTNode", float]]:
        """The per-location edge index, built on first query.

        Definition 3 guarantees at most one successor per (node, location),
        so the index is lossless.  Nodes of a finished graph are read-only
        by contract; the index only auto-invalidates when ``edges`` is
        rebound to a new dict.
        """
        cached = self._location_index
        if cached is None or cached[0] is not self.edges:
            index = {child.location: (child, probability)
                     for child, probability in self.edges.items()}
            cached = (self.edges, index)
            self._location_index = cached
        return cached[1]

    def successor_for(self, location: str) -> Optional["CTNode"]:
        """The unique successor at ``location``, if the edge exists."""
        entry = self._edges_by_location().get(location)
        return entry[0] if entry is not None else None

    def __repr__(self) -> str:
        stay = "⊥" if self.stay is None else str(self.stay)
        return (f"CTNode(tau={self.tau}, loc={self.location!r}, stay={stay}, "
                f"tl={list(self.departures)}, out={len(self.edges)})")


class NodeWebGraph:
    """A levelled web of location nodes: what :class:`CTGraph` and
    :class:`~repro.core.groups.JointGraph` share.

    Each node has a ``location``, a ``stay`` and an ``edges`` dict mapping
    its successors on the next level to edge probabilities.  Queries do
    not walk the web: the graph converts once to its flat form
    (:meth:`to_flat`) and answers through the
    :class:`~repro.queries.session.QuerySession` cached on it
    (:meth:`query_session`).
    """

    def __init__(self, levels: Sequence[Sequence[Any]],
                 source_probabilities: Dict[Any, float],
                 stats: Optional["CleaningStats"] = None) -> None:
        self._levels: Tuple[Tuple[Any, ...], ...] = tuple(
            tuple(level) for level in levels)
        self._source_probabilities = dict(source_probabilities)
        self._session: Optional["QuerySession"] = None
        #: The construction counters of Algorithm 1, ``None`` for graphs
        #: built by hand, loaded from disk or joined by
        #: :func:`~repro.core.groups.condition_on_meeting` (declared here
        #: so every graph has the attribute).
        self.stats: Optional["CleaningStats"] = stats

    @property
    def duration(self) -> int:
        """The number of timesteps (levels)."""
        return len(self._levels)

    def level(self, tau: int) -> Tuple[Any, ...]:
        """The nodes of timestep ``tau``."""
        if not 0 <= tau < len(self._levels):
            raise QueryError(f"timestep {tau} outside [0, {len(self._levels)})")
        return self._levels[tau]

    @property
    def sources(self) -> Tuple[Any, ...]:
        return self._levels[0]

    def source_probability(self, node: Any) -> float:
        """The conditioned probability of starting at source ``node``."""
        return self._source_probabilities.get(node, 0.0)

    @property
    def num_nodes(self) -> int:
        return sum(len(level) for level in self._levels)

    def paths(self) -> Iterator[Tuple[Trajectory, float]]:
        """Every valid trajectory with its conditioned probability.

        Exponential in general — meant for tests and small graphs.
        """
        def walk(node: Any, prefix: List[str], probability: float
                 ) -> Iterator[Tuple[Trajectory, float]]:
            prefix.append(node.location)
            if node.tau == self.duration - 1:
                yield tuple(prefix), probability
            else:
                for child, p in node.edges.items():
                    yield from walk(child, prefix, probability * p)
            prefix.pop()

        for source in self.sources:
            yield from walk(source, [], self.source_probability(source))

    def query_session(self) -> "QuerySession":
        """The :class:`~repro.queries.session.QuerySession` over this
        graph's flat form: converted on first use, then cached on the
        graph (a pickled :class:`CTGraph` drops it), so repeated queries
        share its sweeps."""
        if self._session is None:
            # Imported here: the queries layer imports this module.
            from repro.queries.session import QuerySession

            self._session = QuerySession(self)
        return self._session

    def location_marginal(self, tau: int) -> Dict[str, float]:
        """The distribution of the object's location at timestep ``tau``."""
        return self.query_session().location_marginal(tau)

    def to_flat(self) -> FlatCTGraph:
        """The graph as a :class:`~repro.core.flatgraph.FlatCTGraph`.

        Location ids are interned in first-appearance order (level-major,
        node order) and every per-level array follows this graph's node
        and edge-insertion order, so the conversion of a :class:`CTGraph`
        is bit-identical to the flat form
        ``CleaningOptions(materialize="flat")`` emits directly.  The
        ``departures`` tuples and parent lists are not carried over —
        queries never read them.  ``stats`` rides along.
        """
        location_ids: Dict[str, int] = {}
        names: List[str] = []
        locations: List[Tuple[int, ...]] = []
        stays: List[Tuple[Optional[int], ...]] = []
        for level in self._levels:
            locations.append(tuple(_intern(node.location, location_ids,
                                           names) for node in level))
            stays.append(tuple(node.stay for node in level))
        edge_offsets: List[Tuple[int, ...]] = []
        edge_children: List[Tuple[int, ...]] = []
        edge_probabilities: List[Tuple[float, ...]] = []
        for tau in range(len(self._levels) - 1):
            index = {node: i
                     for i, node in enumerate(self._levels[tau + 1])}
            offsets: List[int] = [0]
            children: List[int] = []
            probabilities: List[float] = []
            for node in self._levels[tau]:
                for child, probability in node.edges.items():
                    children.append(index[child])
                    probabilities.append(probability)
                offsets.append(len(children))
            edge_offsets.append(tuple(offsets))
            edge_children.append(tuple(children))
            edge_probabilities.append(tuple(probabilities))
        return FlatCTGraph(
            location_names=tuple(names),
            locations=tuple(locations),
            stays=tuple(stays),
            edge_offsets=tuple(edge_offsets),
            edge_children=tuple(edge_children),
            edge_probabilities=tuple(edge_probabilities),
            source_probabilities=tuple(self.source_probability(node)
                                       for node in self._levels[0]),
            stats=self.stats)


class CTGraph(NodeWebGraph):
    """A finished conditioned-trajectory graph."""

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def targets(self) -> Tuple[CTNode, ...]:
        return self._levels[-1]

    @property
    def num_edges(self) -> int:
        return sum(len(node.edges) for level in self._levels for node in level)

    def nodes(self) -> Iterator[CTNode]:
        """All nodes, level by level."""
        for level in self._levels:
            yield from level

    def locations_at(self, tau: int) -> Tuple[str, ...]:
        """Distinct locations present at timestep ``tau`` (sorted)."""
        return tuple(sorted({node.location for node in self.level(tau)}))

    # ------------------------------------------------------------------
    # trajectories and probabilities
    # ------------------------------------------------------------------
    def num_valid_trajectories(self) -> int:
        """How many source->target paths (= valid trajectories) exist."""
        counts: Dict[CTNode, int] = {node: 1 for node in self.targets}
        for level in reversed(self._levels[:-1]):
            for node in level:
                counts[node] = sum(counts[child] for child in node.edges)
        return sum(counts[node] for node in self.sources)

    def trajectory_probability(self, trajectory: Sequence[str]) -> float:
        """The conditioned probability of one trajectory (0 if invalid).

        The walk is deterministic: at most one source node per location and
        at most one successor per (node, location).
        """
        if len(trajectory) != self.duration:
            raise QueryError(
                f"trajectory has {len(trajectory)} steps, expected {self.duration}")
        node = None
        for source in self.sources:
            if source.location == trajectory[0]:
                node = source
                break
        if node is None:
            return 0.0
        probability = self.source_probability(node)
        for location in trajectory[1:]:
            step = node._edges_by_location().get(location)
            if step is None:
                return 0.0
            node, p = step
            probability *= p
        return probability

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def validate(self, tolerance: float = 1e-6) -> None:
        """Check the Definition 4 invariants; raises
        :class:`~repro.errors.GraphInvariantError` on the first violation.

        Used by tests and available to cautious callers; O(nodes + edges).
        The checks are explicit ``raise`` statements — not ``assert`` — so
        they still run under ``python -O`` / ``PYTHONOPTIMIZE``.  The error
        type subclasses :class:`AssertionError`, keeping the historical
        contract for callers that caught assertion failures.
        """
        total_sources = math.fsum(self._source_probabilities.values())
        if abs(total_sources - 1.0) > tolerance:
            raise GraphInvariantError(
                f"source probabilities sum to {total_sources}")
        for tau, level in enumerate(self._levels):
            for node in level:
                if node.tau != tau:
                    raise GraphInvariantError(
                        f"node {node!r} filed at level {tau}")
                if tau < self.duration - 1:
                    if not node.edges:
                        raise GraphInvariantError(
                            f"non-target node {node!r} has no successors")
                    total = math.fsum(node.edges.values())
                    if abs(total - 1.0) > tolerance:
                        raise GraphInvariantError(
                            f"outgoing probabilities of {node!r} sum to {total}")
                elif node.edges:
                    raise GraphInvariantError(
                        f"target node {node!r} has successors")
                if tau > 0 and not node.parents:
                    raise GraphInvariantError(
                        f"non-source node {node!r} is unreachable")

    # ------------------------------------------------------------------
    # pickling (the batch runtime ships graphs between processes)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        """Flatten the node web into id-indexed lists.

        Default pickling would recurse through the ``edges``/``parents``
        object graph — one stack frame chain per timestep — and overflow
        the interpreter recursion limit on long durations.  The flat form
        is also smaller: parent lists are derivable and are rebuilt on
        load rather than stored.
        """
        ids: Dict[CTNode, int] = {}
        for node in self.nodes():
            ids[node] = len(ids)
        return {
            "levels": [[(node.location, node.stay, node.departures)
                        for node in level] for level in self._levels],
            "edges": [[(ids[child], probability)
                       for child, probability in node.edges.items()]
                      for node in self.nodes()],
            "sources": [(ids[node], probability)
                        for node, probability
                        in self._source_probabilities.items()],
            "stats": self.stats,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        nodes: List[CTNode] = []
        levels: List[Tuple[CTNode, ...]] = []
        for tau, level_state in enumerate(state["levels"]):
            level_nodes = tuple(CTNode(tau, location, stay, departures)
                                for location, stay, departures in level_state)
            levels.append(level_nodes)
            nodes.extend(level_nodes)
        # Edge insertion order is preserved, so ``paths()`` and the edge
        # dicts of a round-tripped graph iterate exactly like the original;
        # parents are rebuilt in the same (level-major) order Algorithm 1
        # appends them.
        for node, edge_state in zip(nodes, state["edges"]):
            for child_id, probability in edge_state:
                child = nodes[child_id]
                node.edges[child] = probability
                child.parents.append(node)
        self._levels = tuple(levels)
        self._source_probabilities = {nodes[index]: probability
                                      for index, probability
                                      in state["sources"]}
        self._session = None
        self.stats = state["stats"]

    def to_networkx(self):
        """The graph as a ``networkx.DiGraph`` for external tooling.

        Nodes are dense integer ids with ``tau``/``location``/``stay``/
        ``departures``/``source_probability`` attributes; edges carry the
        conditioned ``probability``.  The conversion is read-only —
        mutating the result does not touch this graph.
        """
        import networkx as nx

        ids = {node: index for index, node in enumerate(self.nodes())}
        digraph = nx.DiGraph(duration=self.duration)
        for node, index in ids.items():
            digraph.add_node(
                index, tau=node.tau, location=node.location,
                stay=node.stay, departures=list(node.departures),
                source_probability=self.source_probability(node))
        for node, index in ids.items():
            for child, probability in node.edges.items():
                digraph.add_edge(index, ids[child], probability=probability)
        return digraph

    def estimate_size_bytes(self) -> int:
        """A size estimate of the materialised graph (Section 6.7).

        Counts the Python objects actually held: nodes (including their TL
        tuples), edge-map entries and parent-list slots.  The absolute
        number is interpreter-specific; benchmarks only compare ratios.
        """
        total = 0
        for level in self._levels:
            total += sys.getsizeof(level)
            for node in level:
                total += object.__sizeof__(node)
                total += sys.getsizeof(node.departures)
                total += 64 * len(node.departures)  # tuple entries + ints
                total += sys.getsizeof(node.edges) + 16 * len(node.edges)
                total += sys.getsizeof(node.parents)
        return total

    def __repr__(self) -> str:
        return (f"CTGraph(duration={self.duration}, nodes={self.num_nodes}, "
                f"edges={self.num_edges})")
