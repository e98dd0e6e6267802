"""Deriving DU, TT and LT constraints from a building map.

The three generators mirror Section 6.3 of the paper:

* **DU** — one ``unreachable(l1, l2)`` per ordered pair of distinct
  locations not directly connected by a door;
* **TT** — one ``travelingTime(l1, l2, v)`` per ordered pair of locations
  that are connected but not directly connected, with
  ``v = ceil(min_walking_distance(l1, l2) / max_speed)`` (constraints whose
  ``v <= 1`` are vacuous and skipped);
* **LT** — one ``latency(l, d)`` per non-transit location (the paper
  excludes corridors because objects legitimately cross them quickly).

Pairs in different connected components need no TT constraint: every path
between them would contain a DU-forbidden step already.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.constraints import (
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.errors import ConstraintError
from repro.mapmodel.building import Building
from repro.mapmodel.distances import WalkingDistances

__all__ = [
    "MotilityProfile",
    "infer_du_constraints",
    "infer_tt_constraints",
    "infer_lt_constraints",
    "infer_constraints",
]

#: The paper's experimental parameters: people walking inside a building.
DEFAULT_MAX_SPEED = 2.0       # metres per timestep (= 2 m/s at 1 s steps)
DEFAULT_MIN_STAY = 5          # timesteps (= 5 s at 1 s steps)


@dataclass(frozen=True)
class MotilityProfile:
    """What we know about how the monitored objects move.

    ``max_speed`` is in metres per timestep; ``min_stay`` is the latency
    bound (in timesteps) attached to every non-transit location.
    """

    max_speed: float = DEFAULT_MAX_SPEED
    min_stay: int = DEFAULT_MIN_STAY

    def __post_init__(self) -> None:
        if self.max_speed <= 0:
            raise ConstraintError(f"max_speed must be positive, got {self.max_speed}")
        if self.min_stay < 1:
            raise ConstraintError(f"min_stay must be >= 1, got {self.min_stay}")


def infer_du_constraints(building: Building) -> List[Unreachable]:
    """All DU constraints implied by the map."""
    constraints: List[Unreachable] = []
    names = building.location_names
    for loc_a in names:
        adjacent = set(building.neighbors(loc_a))
        for loc_b in names:
            if loc_b != loc_a and loc_b not in adjacent:
                constraints.append(Unreachable(loc_a, loc_b))
    return constraints


def infer_tt_constraints(building: Building, max_speed: float = DEFAULT_MAX_SPEED,
                         distances: Optional[WalkingDistances] = None,
                         ) -> List[TravelingTime]:
    """All non-vacuous TT constraints implied by the map and ``max_speed``.

    ``distances`` may be passed in to reuse a precomputed table.
    """
    if distances is None:
        distances = WalkingDistances(building)
    constraints: List[TravelingTime] = []
    connected = building.connected_location_pairs()
    for loc_a, loc_b in sorted(connected):
        if building.are_adjacent(loc_a, loc_b):
            continue
        steps = distances.min_traveling_time(loc_a, loc_b, max_speed)
        if steps > 1:
            constraints.append(TravelingTime(loc_a, loc_b, steps))
    return constraints


def infer_lt_constraints(building: Building, min_stay: int = DEFAULT_MIN_STAY,
                         ) -> List[Latency]:
    """One latency constraint per non-transit location (none if vacuous)."""
    if min_stay <= 1:
        return []
    return [Latency(location.name, min_stay)
            for location in building.locations if not location.is_transit]


def infer_constraints(building: Building,
                      profile: MotilityProfile = MotilityProfile(),
                      kinds: Sequence[str] = ("DU", "LT", "TT"),
                      distances: Optional[WalkingDistances] = None,
                      ) -> ConstraintSet:
    """The full inferred constraint set, restricted to the given ``kinds``.

    ``kinds`` is any subset of ``{"DU", "LT", "TT"}`` — the experiment
    harness uses this to build the paper's CTG(DU), CTG(DU, LT) and
    CTG(DU, LT, TT) configurations.
    """
    known = {"DU", "LT", "TT"}
    requested = set(kinds)
    unknown = requested - known
    if unknown:
        raise ConstraintError(f"unknown constraint kinds: {sorted(unknown)}")
    constraints: List = []
    if "DU" in requested:
        constraints.extend(infer_du_constraints(building))
    if "LT" in requested:
        constraints.extend(infer_lt_constraints(building, profile.min_stay))
    if "TT" in requested:
        constraints.extend(infer_tt_constraints(building, profile.max_speed,
                                                distances=distances))
    return ConstraintSet(constraints)
