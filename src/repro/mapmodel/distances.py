"""Minimum walking distances between locations (the basis of TT constraints).

The paper derives traveling-time constraints from "the minimum walking
distance between L1 and L2, and the maximum speed of a person" (Section 6.3).
This module computes those minimum distances on the *door graph*:

* every door contributes two nodes, one per side, joined by an edge of the
  door's walking ``length`` (0 for ordinary doors, the flight length for
  staircase doors);
* within each location, all door sides facing that location are pairwise
  joined by the Euclidean distance between the door points (the footprints
  are convex rectangles, so the straight line between two doors of the same
  room is walkable).

The minimum distance from location ``l1`` to ``l2`` is the shortest path
from any door side facing ``l1`` to any door side facing ``l2`` — an object
may start arbitrarily close to one of its room's doors, so no intra-room
start-up distance is added.  Adjacent locations therefore get distance 0,
which is consistent with the paper generating TT constraints only for pairs
*connected but not directly connected*.
"""

from __future__ import annotations

import math
from typing import Dict

import networkx as nx

from repro.errors import MapModelError, UnknownLocationError
from repro.mapmodel.building import Building

__all__ = ["WalkingDistances"]


class WalkingDistances:
    """All-pairs minimum walking distances over a building's door graph."""

    def __init__(self, building: Building) -> None:
        self.building = building
        self._graph = nx.Graph()
        self._sides: Dict[str, list] = {name: [] for name in building.location_names}
        self._build_graph()
        self._distances: Dict[str, Dict[str, float]] = {}
        self._compute_all_pairs()

    def _build_graph(self) -> None:
        for door_id, door in enumerate(self.building.doors):
            side_a = (door_id, door.loc_a)
            side_b = (door_id, door.loc_b)
            self._graph.add_edge(side_a, side_b, weight=door.length)
            self._sides[door.loc_a].append(side_a)
            self._sides[door.loc_b].append(side_b)
        # Intra-location edges: straight-line walks between doors of the room.
        for name in self.building.location_names:
            sides = self._sides[name]
            for i in range(len(sides)):
                for j in range(i + 1, len(sides)):
                    door_i = self.building.doors[sides[i][0]]
                    door_j = self.building.doors[sides[j][0]]
                    length = door_i.point_in(name).distance_to(door_j.point_in(name))
                    self._graph.add_edge(sides[i], sides[j], weight=length)

    def _compute_all_pairs(self) -> None:
        for name in self.building.location_names:
            sources = self._sides[name]
            row: Dict[str, float] = {}
            if sources:
                lengths = nx.multi_source_dijkstra_path_length(
                    self._graph, sources, weight="weight")
                for other in self.building.location_names:
                    if other == name:
                        row[other] = 0.0
                        continue
                    best = math.inf
                    for side in self._sides[other]:
                        value = lengths.get(side)
                        if value is not None and value < best:
                            best = value
                    row[other] = best
            else:
                for other in self.building.location_names:
                    row[other] = 0.0 if other == name else math.inf
            self._distances[name] = row

    # ------------------------------------------------------------------
    def distance(self, loc_a: str, loc_b: str) -> float:
        """Minimum walking distance in metres (``inf`` if unreachable)."""
        try:
            return self._distances[loc_a][loc_b]
        except KeyError:
            missing = loc_a if loc_a not in self._distances else loc_b
            raise UnknownLocationError(missing) from None

    def is_reachable(self, loc_a: str, loc_b: str) -> bool:
        """Whether ``loc_b`` can be reached from ``loc_a`` at all."""
        return math.isfinite(self.distance(loc_a, loc_b))

    def min_traveling_time(self, loc_a: str, loc_b: str, max_speed: float) -> int:
        """Minimum whole-timestep travel time at ``max_speed`` metres/step.

        This is the ``v`` of a ``travelingTime(loc_a, loc_b, v)`` constraint:
        no object moving at most ``max_speed`` can get from ``loc_a`` to
        ``loc_b`` in fewer than ``v`` timesteps.
        """
        if max_speed <= 0:
            raise MapModelError(f"max_speed must be positive, got {max_speed}")
        dist = self.distance(loc_a, loc_b)
        if math.isinf(dist):
            raise MapModelError(
                f"no path between {loc_a!r} and {loc_b!r}; "
                "use a DU constraint instead of a TT constraint")
        return int(math.ceil(dist / max_speed))

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """A copy of the full distance table (location -> location -> metres)."""
        return {a: dict(row) for a, row in self._distances.items()}
