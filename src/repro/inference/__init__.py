"""Automatic inference of integrity constraints from a map (Section 6.3).

The paper stresses (footnote 1) that DU and TT constraints do not require
domain expertise: DU constraints follow from the map's structure, TT
constraints from minimum walking distances and the maximum speed of the
monitored objects.  This package implements that inference; the only inputs
are the :class:`~repro.mapmodel.building.Building` and a motility profile.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.inference.infer import (
        MotilityProfile,
        infer_constraints,
        infer_du_constraints,
        infer_lt_constraints,
        infer_tt_constraints,
    )

__all__ = [
    "MotilityProfile",
    "infer_constraints",
    "infer_du_constraints",
    "infer_tt_constraints",
    "infer_lt_constraints",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.inference.infer": (
        "MotilityProfile", "infer_constraints", "infer_du_constraints",
        "infer_lt_constraints", "infer_tt_constraints",
    ),
})
