"""A constraint-aware particle filter (the [4, 25] line of work).

"Sampling under constraints" approaches clean RFID data by maintaining
weighted samples that satisfy the constraints.  This baseline is a
bootstrap particle filter over location-node states:

* each particle carries a full node state ``(location, stay, TL)`` — the
  same state the exact algorithm uses, so constraint checking is shared;
* the *proposal* moves a particle to a random legal successor among the
  next step's candidate locations (weighted by the prior);
* particles with no legal continuation die; the population is resampled
  back to size every step (systematic resampling).

The filter outputs per-step *filtered* location estimates like
:class:`repro.streaming.StreamingCleaner`, but approximately and with
O(particles) memory — the comparison benchmark measures the
accuracy/cost trade-off against exact conditioning.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

try:
    import numpy as np
except ImportError:  # pragma: no cover - no-numpy environments
    from repro.optional import missing_dependency

    np = missing_dependency("numpy", "repro[numpy]")  # type: ignore[assignment]

from repro.core.constraints import ConstraintSet
from repro.core.lsequence import LSequence
from repro.core.nodes import NodeState, source_states, successor_state
from repro.errors import InconsistentReadingsError, ReadingSequenceError

__all__ = ["ParticleFilter"]


class ParticleFilter:
    """Bootstrap particle filtering of an l-sequence under constraints."""

    def __init__(self, constraints: ConstraintSet, num_particles: int = 200,
                 rng: Optional[np.random.Generator] = None) -> None:
        if num_particles < 1:
            raise ReadingSequenceError(
                f"num_particles must be >= 1, got {num_particles}")
        self.constraints = constraints
        self.num_particles = num_particles
        self.rng = rng if rng is not None else np.random.default_rng()

    def run(self, lsequence: LSequence) -> List[Dict[str, float]]:
        """Filtered location estimates, one distribution per timestep.

        Standard sequential importance resampling: the proposal moves each
        particle to a legal successor drawn proportionally to the next
        step's prior, the importance weight picks up the proposal's
        normaliser (the particle's total legal continuation mass), and the
        population is resampled systematically every step.

        Raises :class:`InconsistentReadingsError` when the entire
        population dies (no particle has any legal continuation).
        """
        rng = self.rng
        estimates: List[Dict[str, float]] = []

        # Initialise from the first step's prior.
        row = lsequence.candidates(0)
        names = list(row)
        probabilities = np.array([row[name] for name in names])
        probabilities = probabilities / probabilities.sum()
        states = source_states(names, self.constraints)
        draws = rng.choice(len(names), size=self.num_particles,
                           p=probabilities)
        particles: List[NodeState] = [states[names[int(i)]] for i in draws]
        weights = np.full(self.num_particles, 1.0 / self.num_particles)
        estimates.append(self._estimate(particles, weights))

        for tau in range(1, lsequence.duration):
            row = lsequence.candidates(tau)
            candidates = list(row.items())
            moved: List[NodeState] = []
            new_weights: List[float] = []
            for state, weight in zip(particles, weights):
                if weight <= 0.0:
                    continue
                options: List[Tuple[NodeState, float]] = []
                mass = 0.0
                for destination, probability in candidates:
                    successor = successor_state(tau - 1, state, destination,
                                                self.constraints)
                    if successor is not None:
                        options.append((successor, probability))
                        mass += probability
                if not options:
                    continue  # the particle is stuck: it dies
                option_weights = np.array([p for _, p in options]) / mass
                pick = int(rng.choice(len(options), p=option_weights))
                moved.append(options[pick][0])
                # The importance weight picks up the proposal normaliser:
                # particles with little legal continuation mass count less.
                new_weights.append(weight * mass)
            total = float(np.sum(new_weights)) if new_weights else 0.0
            if total <= 0.0:
                raise InconsistentReadingsError(
                    f"all particles died at timestep {tau}; increase "
                    "num_particles or use the exact cleaner")
            normalised = np.array(new_weights) / total
            estimates.append(self._estimate(moved, normalised))
            # Systematic resampling back to the population size.
            positions = (rng.random() + np.arange(self.num_particles)) \
                / self.num_particles
            cumulative = np.cumsum(normalised)
            indices = np.searchsorted(cumulative, positions)
            particles = [moved[int(i)] for i in indices]
            weights = np.full(self.num_particles, 1.0 / self.num_particles)
        return estimates

    @staticmethod
    def _estimate(particles: Sequence[NodeState],
                  weights: np.ndarray) -> Dict[str, float]:
        masses: Dict[str, float] = {}
        for (location, _stay, _departures), weight in zip(particles, weights):
            masses[location] = masses.get(location, 0.0) + float(weight)
        total = sum(masses.values())
        return {location: mass / total for location, mass in masses.items()}
