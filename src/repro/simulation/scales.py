"""The named experiment scales, without the generator's numpy.

:mod:`repro.simulation.datasets` builds datasets at these scales; the
CLI's parser lists them, and reads them here so that ``rfid-ctg --help``
loads no numpy.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

from repro.errors import ReproError

__all__ = ["SCALES", "active_scale"]

#: Named experiment scales: duration list (in timesteps = seconds) and the
#: number of trajectories per duration.  ``paper`` is the EDBT setup.
SCALES: Dict[str, Tuple[Tuple[int, ...], int]] = {
    "tiny": ((30, 60), 2),
    "small": ((120, 240, 360, 480), 3),
    "medium": ((300, 600, 900, 1200), 5),
    "paper": ((1800, 3600, 5400, 7200), 25),
}


def active_scale(default: str = "small") -> str:
    """The scale selected via the ``REPRO_SCALE`` environment variable."""
    scale = os.environ.get("REPRO_SCALE", default)
    if scale not in SCALES:
        raise ReproError(
            f"unknown REPRO_SCALE {scale!r}; expected one of {sorted(SCALES)}")
    return scale
