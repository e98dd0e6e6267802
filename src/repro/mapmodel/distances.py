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

The shortest paths come from one multi-source Dijkstra per location over
the door sides' adjacency lists (stdlib ``heapq``); SYN2's door graph has
158 sides.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Tuple

from repro.errors import MapModelError, UnknownLocationError
from repro.mapmodel.building import Building

__all__ = ["WalkingDistances"]

#: One side of a door: the door's index and the location it faces.
Side = Tuple[int, str]


class WalkingDistances:
    """All-pairs minimum walking distances over a building's door graph."""

    def __init__(self, building: Building) -> None:
        self.building = building
        self._sides: Dict[str, List[Side]] = {
            name: [] for name in building.location_names}
        # side -> [(neighbouring side, walking length)]
        self._adjacency: Dict[Side, List[Tuple[Side, float]]] = {}
        self._build_graph()
        self._distances: Dict[str, Dict[str, float]] = {}
        self._compute_all_pairs()

    def _build_graph(self) -> None:
        for door_id, door in enumerate(self.building.doors):
            side_a = (door_id, door.loc_a)
            side_b = (door_id, door.loc_b)
            self._add_edge(side_a, side_b, door.length)
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
                    self._add_edge(sides[i], sides[j], length)

    def _add_edge(self, side_a: Side, side_b: Side, length: float) -> None:
        self._adjacency.setdefault(side_a, []).append((side_b, length))
        self._adjacency.setdefault(side_b, []).append((side_a, length))

    def _shortest_lengths(self, sources: Iterable[Side]) -> Dict[Side, float]:
        """Multi-source Dijkstra: the shortest walk from any of
        ``sources`` to every door side it reaches."""
        lengths: Dict[Side, float] = {}
        heap = [(0.0, side) for side in sources]
        heapq.heapify(heap)
        while heap:
            length, side = heapq.heappop(heap)
            if side in lengths:
                continue
            lengths[side] = length
            for neighbour, step in self._adjacency[side]:
                if neighbour not in lengths:
                    heapq.heappush(heap, (length + step, neighbour))
        return lengths

    def _compute_all_pairs(self) -> None:
        for name in self.building.location_names:
            sources = self._sides[name]
            row: Dict[str, float] = {}
            if sources:
                lengths = self._shortest_lengths(sources)
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
