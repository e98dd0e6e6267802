"""The exact readings pass of the analyzer (rules C005, C006, C008, C010).

The node state ``(location, stay, departures)`` makes the validity of the
future Markov in the node, so Algorithm 1's own forward pass is an exact
zero-mass test, and the graph it builds is the exact answer to every
size question.  :func:`advise` therefore runs one build of the readings
through the public :func:`~repro.core.algorithm.build_ct_graph` and
reads its facts off the result: the kept nodes and edges per level, the
states and edges the forward pass created, the bytes of each
materialised shape (the graphs' own ``estimate_size_bytes`` and the
``.ctg`` bytes :func:`~repro.store.save_ctg` writes), the support
entries no valid trajectory passes through and the ambiguous levels
forced to one location.  On an inconsistent object the build raises
:class:`~repro.errors.ZeroMassError`, and the advice records the
timestep its forward pass died entering.

Nothing on the build path consults it: ``rfid-ctg analyze`` reports it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Tuple, cast

from repro.core import algorithm
from repro.core.constraints import ConstraintSet
from repro.core.ctgraph import CTGraph
from repro.core.lsequence import LSequence
from repro.errors import ZeroMassError

__all__ = [
    "FLAT_ADVICE_MIN_NODE_BYTES",
    "EngineAdvice",
    "advise",
]

#: Node-form bytes from which materialising flat is advised.
FLAT_ADVICE_MIN_NODE_BYTES = 4 << 20


@dataclass(frozen=True)
class EngineAdvice:
    """Exact facts about the ct-graph of one instance.

    On zero mass only ``duration``, ``zero_mass`` and ``failed_at`` carry
    information; every count is empty or 0.
    """

    #: Duration of the l-sequence.
    duration: int
    #: Whether the build raised ``ZeroMassError``.
    zero_mass: bool = False
    #: The timestep the forward pass died entering (see
    #: :class:`~repro.errors.ZeroMassError`); ``None`` when it did not.
    failed_at: Optional[int] = None
    #: Kept nodes per level.
    level_nodes: Tuple[int, ...] = ()
    #: Kept edges per transition ``tau -> tau + 1``.
    level_edges: Tuple[int, ...] = ()
    #: States and edges the forward pass created (``CleaningStats``).
    nodes_created: int = 0
    edges_created: int = 0
    #: ``CTGraph.estimate_size_bytes`` of the node form.
    node_bytes: int = 0
    #: ``FlatCTGraph.estimate_size_bytes`` of the flat form.
    flat_bytes: int = 0
    #: Bytes ``save_ctg`` writes for the graph (its stats block included).
    ctg_bytes: int = 0
    #: ``(tau, location)`` support entries no valid trajectory is at.
    dead: Tuple[Tuple[int, str], ...] = ()
    #: ``(tau, location)`` of each level whose support holds several
    #: locations and whose valid trajectories all pass one.
    forced: Tuple[Tuple[int, str], ...] = ()

    @property
    def nodes_kept(self) -> int:
        return sum(self.level_nodes)

    @property
    def peak_level_width(self) -> int:
        return max(self.level_nodes, default=0)

    @property
    def materialize(self) -> str:
        """The advised materialisation, ``"nodes"`` or ``"flat"``."""
        return ("flat" if self.node_bytes >= FLAT_ADVICE_MIN_NODE_BYTES
                else "nodes")


def advise(lsequence: LSequence, constraints: ConstraintSet, *,
           strict_truncation: bool = False) -> EngineAdvice:
    """Build the instance's ct-graph once and report exact facts about it.

    The build is a node-form compact build, converted once to the flat
    form, whose ``.ctg`` encoding is written to ``os.devnull`` to count
    its bytes.
    """
    from repro.store.format import save_ctg

    options = algorithm.CleaningOptions(
        truncated_stay_policy="strict" if strict_truncation else "lenient",
        materialize="nodes")
    try:
        graph = cast(CTGraph, algorithm.build_ct_graph(
            lsequence, constraints, options))
    except ZeroMassError as error:
        return EngineAdvice(duration=lsequence.duration, zero_mass=True,
                            failed_at=error.failed_at)
    stats = cast(algorithm.CleaningStats, graph.stats)
    flat = graph.to_flat()
    dead: List[Tuple[int, str]] = []
    forced: List[Tuple[int, str]] = []
    for tau in range(graph.duration):
        kept = graph.locations_at(tau)
        support = lsequence.support(tau)
        dead.extend((tau, location) for location in support
                    if location not in kept)
        if len(kept) == 1 and len(support) > 1:
            forced.append((tau, kept[0]))
    return EngineAdvice(
        duration=lsequence.duration,
        level_nodes=tuple(map(flat.level_size, range(flat.duration))),
        level_edges=tuple(map(len, flat.edge_children)),
        nodes_created=stats.nodes_created,
        edges_created=stats.edges_created,
        node_bytes=graph.estimate_size_bytes(),
        flat_bytes=flat.estimate_size_bytes(),
        ctg_bytes=save_ctg(flat, os.devnull),
        dead=tuple(dead),
        forced=tuple(forced))
