"""Calibration of the detection matrix ``F[r, c]`` (Section 6.2).

The paper obtains ``F`` physically: a tag is held inside each 0.5 m grid
cell for 30 seconds and ``F[r, c]`` is the fraction of the 30 one-second
epochs in which reader ``r`` detected it.  :func:`calibrate` simulates that
procedure verbatim against a :class:`~repro.rfid.readers.ReaderModel` —
the resulting matrix carries genuine sampling noise, exactly like a physical
calibration would.  :func:`exact_matrix` returns the underlying expected
probabilities instead (useful for the reading generator, whose ``F`` the
paper treats as ground truth).
"""

from __future__ import annotations

from typing import Dict, List, Optional

try:
    import numpy as np
except ImportError:  # pragma: no cover - no-numpy environments
    from repro.optional import missing_dependency

    np = missing_dependency("numpy", "repro[numpy]")  # type: ignore[assignment]

from repro.errors import CalibrationError
from repro.mapmodel.grid import Cell, Grid
from repro.rfid.readers import ReaderModel

__all__ = ["DetectionMatrix", "exact_matrix", "calibrate"]

#: The paper's calibration duration: 30 one-second epochs per cell.
DEFAULT_CALIBRATION_EPOCHS = 30


class DetectionMatrix:
    """The matrix ``F[r, c]``: readers on rows, grid cells on columns.

    ``F[r, c]`` is interpreted as the probability that a tag staying in cell
    ``c`` for one timestep is detected by reader ``r`` (readers behave
    independently).  The matrix is the single interface between the physical
    substrate and the probabilistic machinery: both the prior model and the
    reading generator consume it.
    """

    def __init__(self, values: np.ndarray, grid: Grid, reader_names) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise CalibrationError(f"F must be 2-D, got shape {values.shape}")
        if values.shape[0] != len(reader_names):
            raise CalibrationError(
                f"F has {values.shape[0]} rows but {len(reader_names)} readers")
        if values.shape[1] != grid.num_cells:
            raise CalibrationError(
                f"F has {values.shape[1]} columns but the grid has "
                f"{grid.num_cells} cells")
        if np.any(values < 0.0) or np.any(values > 1.0):
            raise CalibrationError("F entries must be probabilities in [0, 1]")
        self.values = values
        self.grid = grid
        self.reader_names = tuple(reader_names)
        self._reader_index = {name: i for i, name in enumerate(self.reader_names)}

    @property
    def num_readers(self) -> int:
        return self.values.shape[0]

    @property
    def num_cells(self) -> int:
        return self.values.shape[1]

    def reader_row(self, name: str) -> np.ndarray:
        """The per-cell detection probabilities of reader ``name``."""
        try:
            return self.values[self._reader_index[name]]
        except KeyError:
            raise CalibrationError(f"unknown reader {name!r}") from None

    def cell_column(self, cell_index: int) -> np.ndarray:
        """The per-reader detection probabilities for one cell."""
        return self.values[:, cell_index]

    def coverage(self) -> np.ndarray:
        """Per-cell probability of being detected by at least one reader."""
        return 1.0 - np.prod(1.0 - self.values, axis=0)


def exact_matrix(model: ReaderModel, grid: Grid) -> DetectionMatrix:
    """The expected detection matrix implied by the reader model.

    A reader detects nothing off its own floor, so only the cells on each
    reader's floor are evaluated; every other entry is 0.0.
    """
    values = np.zeros((len(model), grid.num_cells), dtype=np.float64)
    cells_by_floor: Dict[int, List[Cell]] = {}
    for cell in grid.cells:
        cells_by_floor.setdefault(cell.floor, []).append(cell)
    for r, reader in enumerate(model.readers):
        row = values[r]
        for cell in cells_by_floor.get(reader.floor, ()):
            row[cell.index] = model.detection_probability(
                reader, cell.floor, cell.center)
    return DetectionMatrix(values, grid, model.reader_names)


def calibrate(model: ReaderModel, grid: Grid,
              epochs: int = DEFAULT_CALIBRATION_EPOCHS,
              rng: Optional[np.random.Generator] = None, *,
              expected: Optional[DetectionMatrix] = None) -> DetectionMatrix:
    """Simulate the paper's calibration run.

    For each cell, a tag is 'held' in the cell for ``epochs`` independent
    one-second epochs and each reader's detections are counted;
    ``F[r, c] = detections / epochs``.  Deterministic given ``rng``.

    The detections are drawn around :func:`exact_matrix`; a caller that
    already holds it passes it as ``expected`` (it must be for this grid
    and these readers) and it is not computed again.
    """
    if epochs < 1:
        raise CalibrationError(f"epochs must be >= 1, got {epochs}")
    if expected is None:
        expected = exact_matrix(model, grid)
    elif (expected.grid is not grid
          or expected.reader_names != model.reader_names):
        raise CalibrationError(
            "expected= is a detection matrix for another grid or reader set")
    if rng is None:
        rng = np.random.default_rng()
    counts = rng.binomial(epochs, expected.values)
    return DetectionMatrix(counts / float(epochs), grid, model.reader_names)
