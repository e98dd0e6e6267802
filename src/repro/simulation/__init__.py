"""The synthetic data generator of Section 6.4 and the SYN1/SYN2 datasets.

Two modules mirror the paper's two generator components:

* :mod:`repro.simulation.trajectories` — the *trajectory generator*:
  continuous ground-truth movement (entrance point -> rest point -> exit
  point, random rests and walking speeds);
* :mod:`repro.simulation.readings` — the *reading generator*: per-second
  probabilistic reader detections driven by the detection matrix.

:mod:`repro.simulation.datasets` assembles complete, reproducible datasets
(building + readers + calibration + trajectories + readings).
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.simulation.datasets import (
        Dataset,
        GeneratedTrajectory,
        build_dataset,
        syn1_dataset,
        syn2_dataset,
    )
    from repro.simulation.readings import ReadingGenerator
    from repro.simulation.trajectories import (
        GroundTruthTrajectory,
        MovementParameters,
        TrajectoryGenerator,
    )

__all__ = [
    "GroundTruthTrajectory",
    "MovementParameters",
    "TrajectoryGenerator",
    "ReadingGenerator",
    "GeneratedTrajectory",
    "Dataset",
    "build_dataset",
    "syn1_dataset",
    "syn2_dataset",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.simulation.datasets": (
        "Dataset", "GeneratedTrajectory", "build_dataset", "syn1_dataset",
        "syn2_dataset",
    ),
    "repro.simulation.readings": ("ReadingGenerator",),
    "repro.simulation.trajectories": (
        "GroundTruthTrajectory", "MovementParameters", "TrajectoryGenerator",
    ),
})
