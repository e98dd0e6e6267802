"""Dataset archives: persist a complete experiment input as a directory.

An archive holds everything :class:`repro.simulation.datasets.Dataset`
carries — the building, the reader deployment, the exact and calibrated
detection matrices, and every trajectory's readings and ground truth — so
an experiment can be re-run later (or elsewhere) against byte-identical
inputs.

Layout::

    <root>/
      dataset.json            name, cell size, durations, trajectory index
      building.json
      readers.json
      true_matrix.npz
      calibrated_matrix.npz
      trajectories/
        <duration>_<index>.readings.json
        <duration>_<index>.truth.json
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from repro.errors import ReproError
from repro.io.jsonio import (
    load_building,
    load_readers,
    load_readings,
    load_trajectory,
    save_building,
    save_readers,
    save_readings,
    save_trajectory,
)
from repro.io.matrices import load_matrix, save_matrix
from repro.mapmodel.distances import WalkingDistances
from repro.rfid.priors import PriorModel
from repro.simulation.datasets import Dataset, GeneratedTrajectory

__all__ = ["save_dataset", "load_dataset"]

PathLike = Union[str, Path]

_FORMAT = "rfid-ctg/dataset@1"


def save_dataset(dataset: Dataset, root: PathLike) -> None:
    """Write ``dataset`` as a directory archive (created if missing)."""
    root = Path(root)
    (root / "trajectories").mkdir(parents=True, exist_ok=True)

    save_building(dataset.building, root / "building.json")
    save_readers(dataset.readers, root / "readers.json")
    save_matrix(dataset.true_matrix, root / "true_matrix.npz")
    save_matrix(dataset.calibrated_matrix, root / "calibrated_matrix.npz")

    index: List[Dict] = []
    for duration in dataset.durations:
        for i, trajectory in enumerate(dataset.trajectories[duration]):
            stem = f"{duration}_{i}"
            save_readings(trajectory.readings,
                          root / "trajectories" / f"{stem}.readings.json")
            save_trajectory(trajectory.truth,
                            root / "trajectories" / f"{stem}.truth.json")
            index.append({"duration": duration, "index": i, "stem": stem})

    (root / "dataset.json").write_text(json.dumps({
        "format": _FORMAT,
        "name": dataset.name,
        "cell_size": dataset.grid.cell_size,
        "negative_evidence": dataset.prior.negative_evidence,
        "min_probability": dataset.prior.min_probability,
        "ghost_read_rate": dataset.prior.ghost_read_rate,
        "trajectories": index,
    }, indent=2))


def load_dataset(root: PathLike) -> Dataset:
    """Read an archive written by :func:`save_dataset`."""
    root = Path(root)
    manifest = json.loads((root / "dataset.json").read_text())
    if manifest.get("format") != _FORMAT:
        raise ReproError(f"{root}: not a dataset archive")

    building = load_building(root / "building.json")
    readers = load_readers(root / "readers.json", building)
    true_matrix = load_matrix(root / "true_matrix.npz", building)
    calibrated = load_matrix(root / "calibrated_matrix.npz", building)
    grid = true_matrix.grid
    prior = PriorModel(calibrated,
                       negative_evidence=manifest["negative_evidence"],
                       min_probability=manifest["min_probability"],
                       ghost_read_rate=manifest.get("ghost_read_rate", 0.0))

    groups: Dict[int, List[GeneratedTrajectory]] = {}
    for entry in manifest["trajectories"]:
        stem = entry["stem"]
        readings = load_readings(
            root / "trajectories" / f"{stem}.readings.json")
        truth = load_trajectory(
            root / "trajectories" / f"{stem}.truth.json", building)
        groups.setdefault(int(entry["duration"]), []).append(
            GeneratedTrajectory(truth, readings))

    return Dataset(name=manifest["name"], building=building, grid=grid,
                   readers=readers, true_matrix=true_matrix,
                   calibrated_matrix=calibrated, prior=prior,
                   distances=WalkingDistances(building),
                   trajectories=groups)
