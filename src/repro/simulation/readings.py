"""The reading generator (Section 6.4, second module).

Each ground-truth position ``(x, y, tau)`` is mapped to its grid cell, and
each reader ``r`` detects the object with probability ``F[r, c]`` — readers
behave independently, exactly as the paper states.  The matrix used here
should be the *exact* detection matrix (the physical model), while the
priors used for cleaning come from the noisy *calibrated* matrix — the same
distinction as between the real world and the learned model in the paper's
setup.
"""

from __future__ import annotations

from typing import List, Optional

try:
    import numpy as np
except ImportError:  # pragma: no cover - no-numpy environments
    from repro.optional import missing_dependency

    np = missing_dependency("numpy", "repro[numpy]")  # type: ignore[assignment]

from repro.core.lsequence import Reading, ReadingSequence
from repro.errors import MapModelError
from repro.mapmodel.grid import Grid
from repro.rfid.calibration import DetectionMatrix
from repro.simulation.trajectories import GroundTruthTrajectory

__all__ = ["ReadingGenerator"]


class ReadingGenerator:
    """Turns ground-truth trajectories into probabilistic reader detections.

    ``ghost_read_rate`` injects *false positives*: at each timestep, every
    reader not detecting the tag additionally fires with this probability
    (multipath reflections, tag cloning, reader cross-talk).  The paper's
    model has only false negatives (``ghost_read_rate = 0``); the
    robustness ablation sweeps this knob.
    """

    def __init__(self, matrix: DetectionMatrix,
                 rng: Optional[np.random.Generator] = None,
                 ghost_read_rate: float = 0.0) -> None:
        if not 0.0 <= ghost_read_rate < 1.0:
            raise MapModelError(
                f"ghost_read_rate must be in [0, 1), got {ghost_read_rate}")
        self.matrix = matrix
        self.grid: Grid = matrix.grid
        self.rng = rng if rng is not None else np.random.default_rng()
        self.ghost_read_rate = ghost_read_rate
        self._reader_names = matrix.reader_names

    def generate(self, trajectory: GroundTruthTrajectory) -> ReadingSequence:
        """The reading sequence observed while ``trajectory`` unfolds."""
        readings: List[Reading] = []
        for tau in range(trajectory.duration):
            cell_index = self._cell_index(trajectory, tau)
            if cell_index is None:
                probabilities = np.zeros(len(self._reader_names))
            else:
                probabilities = self.matrix.cell_column(cell_index)
            if self.ghost_read_rate > 0.0:
                probabilities = np.maximum(probabilities,
                                           self.ghost_read_rate)
            draws = self.rng.random(len(probabilities))
            detected = frozenset(
                self._reader_names[i]
                for i in np.flatnonzero(draws < probabilities))
            readings.append(Reading(tau, detected))
        return ReadingSequence(readings)

    # ------------------------------------------------------------------
    def _cell_index(self, trajectory: GroundTruthTrajectory,
                    tau: int) -> Optional[int]:
        """The grid cell of the object at ``tau``.

        Positions can sit exactly on a footprint boundary (door crossings),
        where the containing grid square may have no cell or a cell of the
        neighbouring location; in that case the point is nudged toward the
        centre of the labelled location, which always has cells.
        """
        floor = trajectory.floors[tau]
        point = trajectory.points[tau]
        cell = self.grid.cell_at(floor, point)
        if cell is not None:
            return cell.index
        location = trajectory.building.location(trajectory.locations[tau])
        nudged = point.towards(location.rect.center,
                               min(1.0, point.distance_to(location.rect.center)))
        cell = self.grid.cell_at(floor, location.rect.clamp(nudged))
        if cell is not None:
            return cell.index
        cell = self.grid.cell_at(floor, location.rect.center)
        if cell is not None:
            return cell.index
        raise MapModelError(
            f"no grid cell found for position {point} in {location.name!r}")
