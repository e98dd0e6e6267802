"""The RFID substrate: readers, detection physics, calibration and priors.

This package simulates the hardware side of the paper's setup:

* :mod:`repro.rfid.readers` — reader placement and the three-state radial
  detection model (detection probability vs distance, attenuated by walls);
* :mod:`repro.rfid.calibration` — the paper's calibration procedure (a tag
  held for 30 seconds in every 0.5 m cell) producing the matrix ``F[r, c]``;
* :mod:`repro.rfid.priors` — the a-priori distribution ``p*(l | R)`` of
  Section 6.2, computed from ``F``.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.rfid.calibration import DetectionMatrix, calibrate, exact_matrix
    from repro.rfid.priors import PriorModel
    from repro.rfid.readers import Reader, ReaderModel, place_default_readers

__all__ = [
    "Reader",
    "ReaderModel",
    "place_default_readers",
    "DetectionMatrix",
    "calibrate",
    "exact_matrix",
    "PriorModel",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.rfid.calibration": ("DetectionMatrix", "calibrate", "exact_matrix"),
    "repro.rfid.priors": ("PriorModel",),
    "repro.rfid.readers": ("Reader", "ReaderModel", "place_default_readers"),
})
