"""Drawing valid trajectories from a ct-graph.

Section 7 of the paper points out that a ct-graph makes *sampling under
constraints* trivial: every source->target walk is a valid trajectory, so
no rejection machinery is needed.  :class:`TrajectorySampler` implements
exactly that ancestral walk; the sampling ablation benchmark compares it
against rejection sampling from the a-priori distribution.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

try:
    import numpy as np
except ImportError:  # pragma: no cover - no-numpy environments
    from repro.optional import missing_dependency

    np = missing_dependency("numpy", "repro[numpy]")  # type: ignore[assignment]

from repro.core.constraints import ConstraintSet
from repro.core.ctgraph import CTGraph, CTNode
from repro.core.lsequence import LSequence, Trajectory
from repro.core.validity import is_valid_trajectory

__all__ = ["TrajectorySampler", "rejection_sample"]


class TrajectorySampler:
    """Ancestral sampling of trajectories from a conditioned ct-graph.

    Every draw is i.i.d. from the conditioned distribution
    ``p*(t | Theta ∧ IC)`` — by construction of the graph, the walk picks a
    source by ``p_N`` and then follows outgoing-edge distributions.
    """

    def __init__(self, graph: CTGraph,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.graph = graph
        self.rng = rng if rng is not None else np.random.default_rng()
        sources = graph.sources
        self._sources: Tuple[CTNode, ...] = sources
        self._source_probs = np.array(
            [graph.source_probability(node) for node in sources])

    def sample(self) -> Trajectory:
        """One trajectory drawn from the conditioned distribution."""
        index = int(self.rng.choice(len(self._sources), p=self._source_probs))
        node = self._sources[index]
        steps: List[str] = [node.location]
        while node.edges:
            children = list(node.edges.items())
            probabilities = np.array([p for _, p in children])
            # Guard against float drift: renormalise locally.
            probabilities = probabilities / probabilities.sum()
            pick = int(self.rng.choice(len(children), p=probabilities))
            node = children[pick][0]
            steps.append(node.location)
        return tuple(steps)

    def sample_many(self, count: int) -> Iterator[Trajectory]:
        """``count`` i.i.d. trajectory draws."""
        for _ in range(count):
            yield self.sample()


def rejection_sample(lsequence: LSequence, constraints: ConstraintSet,
                     count: int, rng: Optional[np.random.Generator] = None, *,
                     strict_truncation: bool = False,
                     max_attempts: Optional[int] = None,
                     ) -> Tuple[List[Trajectory], int]:
    """The comparator: sample from the prior, reject invalid trajectories.

    Draws trajectories from the independent a-priori distribution and keeps
    the ones satisfying the constraints, stopping after ``count`` accepts
    or ``max_attempts`` draws (default ``1000 * count``).  Returns the
    accepted trajectories and the number of attempts — the attempt count is
    the efficiency figure the ablation benchmark reports.
    """
    if rng is None:
        rng = np.random.default_rng()
    if max_attempts is None:
        max_attempts = 1000 * count

    per_step: List[Tuple[List[str], np.ndarray]] = []
    for tau in range(lsequence.duration):
        row = lsequence.candidates(tau)
        names = list(row)
        per_step.append((names, np.array([row[name] for name in names])))

    accepted: List[Trajectory] = []
    attempts = 0
    while len(accepted) < count and attempts < max_attempts:
        attempts += 1
        draw = tuple(
            names[int(rng.choice(len(names), p=probs))]
            for names, probs in per_step)
        if is_valid_trajectory(draw, constraints,
                               strict_truncation=strict_truncation):
            accepted.append(draw)
    return accepted, attempts
