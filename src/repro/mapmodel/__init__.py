"""Building maps: locations, doors, floor plans, grids and walking distances.

The map model is the substrate everything else stands on: constraint
inference derives direct-unreachability and traveling-time constraints from
it, the reader model places antennas on it, the grid partitions it into the
0.5 m cells used for calibration, and the synthetic trajectory generator
walks objects through it.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.mapmodel.building import Building, Door, Location
    from repro.mapmodel.distances import WalkingDistances
    from repro.mapmodel.floorplans import (
        paper_floor,
        multi_floor_building,
        syn1_building,
        syn2_building,
        two_room_map,
        corridor_map,
    )
    from repro.mapmodel.grid import Cell, Grid
    from repro.mapmodel.random_plans import random_building

__all__ = [
    "Building",
    "Door",
    "Location",
    "Grid",
    "Cell",
    "WalkingDistances",
    "paper_floor",
    "multi_floor_building",
    "syn1_building",
    "syn2_building",
    "two_room_map",
    "corridor_map",
    "random_building",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.mapmodel.building": ("Building", "Door", "Location"),
    "repro.mapmodel.distances": ("WalkingDistances",),
    "repro.mapmodel.floorplans": (
        "paper_floor", "multi_floor_building", "syn1_building",
        "syn2_building", "two_room_map", "corridor_map",
    ),
    "repro.mapmodel.grid": ("Cell", "Grid"),
    "repro.mapmodel.random_plans": ("random_building",),
})
