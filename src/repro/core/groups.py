"""Group correlations: objects known to move together (Section 8).

The paper's future work: "other forms of correlations, such as those
holding in groups of objects moving together, which typically characterize
supply-chain scenarios".  This module implements the core case: two
monitored objects (say, a pallet and its carrier) known to be at the
*same location at every timestep*.

Given each object's cleaned ct-graph, :func:`condition_on_meeting` builds
the product graph restricted to equal-location pairs and renormalises —
i.e. it conditions the independent product distribution on the "moving
together" event.  The result supports the same marginal / path /
probability queries as a ct-graph.  Larger groups fold pairwise:
``condition_on_meeting(a, b)`` produces a :class:`JointGraph` whose
``location_marginal`` already reflects both objects' evidence.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.core.ctgraph import CTNode, NodeWebGraph
from repro.errors import InconsistentReadingsError, QueryError

__all__ = ["JointNode", "JointGraph", "condition_on_meeting",
           "condition_group"]


class JointNode:
    """A pair of same-location node states at one timestep.

    ``stay`` is always ``None``: a joint node carries no latency counter.
    """

    __slots__ = ("tau", "location", "stay", "node_a", "node_b", "edges",
                 "parents")

    def __init__(self, tau: int, location: str,
                 node_a, node_b) -> None:
        self.tau = tau
        self.location = location
        self.stay = None
        self.node_a = node_a
        self.node_b = node_b
        self.edges: Dict["JointNode", float] = {}
        self.parents: List["JointNode"] = []

    def __repr__(self) -> str:
        return (f"JointNode(tau={self.tau}, loc={self.location!r}, "
                f"out={len(self.edges)})")


class JointGraph(NodeWebGraph):
    """The conditioned joint distribution of two objects moving together.

    Its paths are the common trajectories, weighted by their conditioned
    joint probability; queries run through its flat form like a
    :class:`~repro.core.ctgraph.CTGraph`'s do.
    """

    def trajectory_probability(self, trajectory: Sequence[str]) -> float:
        """The conditioned probability that *both* objects follow
        ``trajectory``.

        Unlike a plain ct-graph, several joint nodes can share a location
        at a timestep (different pairings of the two objects' states), so
        this walks a weighted frontier instead of a single node chain.
        """
        if len(trajectory) != self.duration:
            raise QueryError(
                f"trajectory has {len(trajectory)} steps, expected "
                f"{self.duration}")
        frontier: Dict[JointNode, float] = {
            node: self.source_probability(node)
            for node in self.sources if node.location == trajectory[0]}
        for location in trajectory[1:]:
            step: Dict[JointNode, float] = {}
            for node, mass in frontier.items():
                for child, probability in node.edges.items():
                    if child.location == location:
                        step[child] = step.get(child, 0.0) + mass * probability
            frontier = step
            if not frontier:
                return 0.0
        return sum(frontier.values())

    def __repr__(self) -> str:
        return f"JointGraph(duration={self.duration}, nodes={self.num_nodes})"


def condition_on_meeting(graph_a, graph_b) -> JointGraph:
    """Condition two cleaned trajectories on "same location at every step".

    Both graphs must cover the same monitoring interval; each may be a
    :class:`~repro.core.ctgraph.CTGraph` or a :class:`JointGraph` (which
    is how :func:`condition_group` folds larger groups).  Raises
    :class:`InconsistentReadingsError` when the objects cannot have been
    together (no common valid trajectory).
    """
    if graph_a.duration != graph_b.duration:
        raise QueryError(
            f"graphs cover different intervals: {graph_a.duration} vs "
            f"{graph_b.duration} steps")
    duration = graph_a.duration

    # Forward product construction over same-location pairs.
    levels: List[Dict[Tuple[CTNode, CTNode], JointNode]] = [
        {} for _ in range(duration)]
    prior: Dict[JointNode, float] = {}
    for source_a in graph_a.sources:
        pa = graph_a.source_probability(source_a)
        if pa <= 0.0:
            continue
        for source_b in graph_b.sources:
            if source_b.location != source_a.location:
                continue
            pb = graph_b.source_probability(source_b)
            if pb <= 0.0:
                continue
            node = JointNode(0, source_a.location, source_a, source_b)
            levels[0][(source_a, source_b)] = node
            prior[node] = pa * pb
    if not levels[0]:
        raise InconsistentReadingsError(
            "the objects cannot start at a common location")

    for tau in range(duration - 1):
        next_level = levels[tau + 1]
        for node in levels[tau].values():
            # All equal-location pairs of successors.  A CTGraph node has
            # at most one successor per location, but JointGraph inputs
            # (group folding) can have several — hence the generic loop.
            for child_a, pa in node.node_a.edges.items():
                for child_b, pb in node.node_b.edges.items():
                    if child_b.location != child_a.location:
                        continue
                    key = (child_a, child_b)
                    child = next_level.get(key)
                    if child is None:
                        child = JointNode(tau + 1, child_a.location,
                                          child_a, child_b)
                        next_level[key] = child
                    node.edges[child] = pa * pb
                    child.parents.append(node)
        if not next_level:
            raise InconsistentReadingsError(
                f"the objects cannot stay together past timestep {tau}")

    # Backward survival sweep (same scheme as Algorithm 1's backward phase).
    survival: Dict[JointNode, float] = {
        node: 1.0 for node in levels[duration - 1].values()}
    for tau in range(duration - 2, -1, -1):
        level = levels[tau]
        dead: List[Tuple[CTNode, CTNode]] = []
        level_max = 0.0
        for key, node in level.items():
            mass = 0.0
            surviving: Dict[JointNode, float] = {}
            for child, weight in node.edges.items():
                s = survival.get(child, 0.0)
                if s > 0.0:
                    surviving[child] = weight * s
                    mass += weight * s
            if mass <= 0.0:
                dead.append(key)
                node.edges.clear()
                continue
            node.edges = {child: weight / mass
                          for child, weight in surviving.items()}
            survival[node] = mass
            level_max = max(level_max, mass)
        for key in dead:
            del level[key]
        if not level:
            raise InconsistentReadingsError(
                "no joint trajectory satisfies the together constraint")
        if level_max > 0.0:
            for node in level.values():
                survival[node] /= level_max

    source_probabilities: Dict[JointNode, float] = {}
    for node in levels[0].values():
        source_probabilities[node] = prior[node] * survival.get(node, 1.0)
    total = math.fsum(source_probabilities.values())
    if total <= 0.0:
        raise InconsistentReadingsError(
            "the joint trajectories have zero total prior probability")
    for node in source_probabilities:
        source_probabilities[node] /= total

    return JointGraph([tuple(level.values()) for level in levels],
                      source_probabilities)


def condition_group(graphs: Sequence) -> JointGraph:
    """Condition *k* cleaned trajectories on all moving together.

    Folds :func:`condition_on_meeting` left to right; the fold is exact
    because "all pairwise equal" factorises — conditioning the normalised
    pair product against the next object re-scales but never re-weights
    (the resulting distribution is proportional to
    ``p_1(t) * p_2(t) * ... * p_k(t)`` over common trajectories).
    """
    if len(graphs) < 2:
        raise QueryError("condition_group needs at least two graphs")
    joint = condition_on_meeting(graphs[0], graphs[1])
    for graph in graphs[2:]:
        joint = condition_on_meeting(joint, graph)
    return joint
