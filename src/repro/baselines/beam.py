"""Beam-limited cleaning: bounded-memory approximate conditioning.

Traveling-time constraints can blow the exact node-state space up (the
paper's own Section 6.7 numbers; our Fig. 8 benches).  When memory is the
binding constraint, a *beam* over the forward frontier — keep only the
``beam_width`` states with the largest filtered mass per level — yields an
approximate ct-graph at bounded cost.

The result is a genuine :class:`~repro.core.ctgraph.CTGraph` (built by the
exact backward sweep over the beam-restricted forward graph), so every
downstream query works unchanged; only the represented trajectory set is a
high-mass subset of the valid ones, and probabilities are conditioned
within that subset.  The ablation benchmark measures what the truncation
costs in accuracy against the exact cleaner.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List

from repro.core.algorithm import CleaningOptions
from repro.core.constraints import ConstraintSet
from repro.core.ctgraph import CTGraph, CTNode
from repro.core.lsequence import LSequence
from repro.core.nodes import (
    DepartureFilter,
    NodeState,
    _unchecked_successor,
    source_states,
)
from repro.errors import InconsistentReadingsError, ReadingSequenceError

__all__ = ["BeamCleaner"]


class BeamCleaner:
    """Approximate Algorithm 1 with a per-level frontier cap."""

    def __init__(self, constraints: ConstraintSet, beam_width: int = 256,
                 options: CleaningOptions = CleaningOptions()) -> None:
        if beam_width < 1:
            raise ReadingSequenceError(
                f"beam_width must be >= 1, got {beam_width}")
        self.constraints = constraints
        self.beam_width = beam_width
        self.options = options

    def build(self, lsequence: LSequence) -> CTGraph:
        """The beam-restricted conditioned graph of ``lsequence``."""
        constraints = self.constraints
        duration = lsequence.duration
        last = duration - 1
        strict = self.options.strict_truncation

        levels: List[Dict[NodeState, CTNode]] = [{} for _ in range(duration)]
        alpha: Dict[CTNode, float] = {}
        prior_source: Dict[CTNode, float] = {}
        for location, state in source_states(lsequence.support(0),
                                             constraints).items():
            if strict and last == 0 and state[1] is not None:
                continue
            node = CTNode(0, *state)
            levels[0][state] = node
            probability = lsequence.probability(0, location)
            prior_source[node] = probability
            alpha[node] = probability
        if not levels[0]:
            raise InconsistentReadingsError(
                "no source location satisfies the constraints at timestep 0")
        self._trim(levels[0], alpha)

        departure_filter = (DepartureFilter(lsequence, constraints)
                            if constraints.tt_sources else None)
        for tau in range(duration - 1):
            candidates = lsequence.candidates(tau + 1)
            next_level = levels[tau + 1]
            filter_binding = strict and tau + 1 == last
            reachable: Dict[str, list] = {}
            for node in levels[tau].values():
                location = node.location
                allowed = reachable.get(location)
                if allowed is None:
                    allowed = [(d, p) for d, p in candidates.items()
                               if not constraints.forbids_step(location, d)]
                    reachable[location] = allowed
                state = (location, node.stay, node.departures)
                mass = alpha[node]
                for destination, probability in allowed:
                    successor = _unchecked_successor(
                        tau, state, destination, constraints,
                        departure_filter)
                    if successor is None:
                        continue
                    if filter_binding and successor[1] is not None:
                        continue
                    child = next_level.get(successor)
                    if child is None:
                        child = CTNode(tau + 1, *successor)
                        next_level[successor] = child
                        alpha[child] = 0.0
                    node.edges[child] = probability
                    child.parents.append(node)
                    alpha[child] += mass * probability
            if not next_level:
                raise InconsistentReadingsError(
                    f"no trajectory can legally continue past timestep {tau}")
            self._trim(next_level, alpha)
            # Rescale the surviving alphas so long sequences cannot
            # underflow (only ratios matter for trimming).
            peak = max(alpha[node] for node in next_level.values())
            if peak > 0.0:
                for node in next_level.values():
                    alpha[node] /= peak

        return self._condition(levels, prior_source)

    # ------------------------------------------------------------------
    def _trim(self, level: Dict[NodeState, CTNode],
              alpha: Dict[CTNode, float]) -> None:
        """Keep the ``beam_width`` highest-mass states; detach the rest."""
        if len(level) <= self.beam_width:
            return
        keep = set(heapq.nlargest(self.beam_width, level.values(),
                                  key=lambda node: alpha[node]))
        for state in [s for s, node in level.items() if node not in keep]:
            node = level.pop(state)
            for parent in node.parents:
                parent.edges.pop(node, None)
            node.parents.clear()
            alpha.pop(node, None)

    def _condition(self, levels: List[Dict[NodeState, CTNode]],
                   prior_source: Dict[CTNode, float]) -> CTGraph:
        """The exact backward sweep over whatever the beam retained."""
        duration = len(levels)
        survival: Dict[CTNode, float] = {
            node: 1.0 for node in levels[duration - 1].values()}
        for tau in range(duration - 2, -1, -1):
            level = levels[tau]
            dead: List[NodeState] = []
            level_max = 0.0
            for state, node in level.items():
                mass = 0.0
                surviving: Dict[CTNode, float] = {}
                for child, probability in node.edges.items():
                    s = survival.get(child, 0.0)
                    if s > 0.0:
                        surviving[child] = probability * s
                        mass += probability * s
                if mass <= 0.0:
                    dead.append(state)
                    node.edges.clear()
                    continue
                node.edges = {child: w / mass
                              for child, w in surviving.items()}
                survival[node] = mass
                level_max = max(level_max, mass)
            for state in dead:
                level.pop(state)
            if not level:
                raise InconsistentReadingsError(
                    "the beam discarded every valid trajectory; "
                    "increase beam_width")
            if level_max > 0.0:
                for node in level.values():
                    survival[node] /= level_max
        for tau in range(1, duration):
            for node in levels[tau].values():
                node.parents = [p for p in node.parents if p.edges]

        source_probabilities: Dict[CTNode, float] = {}
        for node in levels[0].values():
            source_probabilities[node] = (prior_source[node]
                                          * survival.get(node, 1.0))
        total = math.fsum(source_probabilities.values())
        if total <= 0.0:
            raise InconsistentReadingsError(
                "the retained trajectories have zero prior mass")
        for node in source_probabilities:
            source_probabilities[node] /= total
        return CTGraph([tuple(level.values()) for level in levels],
                       source_probabilities)
