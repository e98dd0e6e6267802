"""The building model: named locations on floors, connected by doors.

A :class:`Building` is a set of :class:`Location` objects (axis-aligned
rectangular footprints, each on exactly one floor) plus :class:`Door` objects
connecting pairs of locations.  Doors between locations on the same floor sit
on the shared boundary of the two footprints; doors between locations on
different floors model staircase flights and carry an explicit walking
``length``.

The model provides exactly what the rest of the library needs:

* the *adjacency structure* (which pairs of locations are directly
  connected) from which direct-unreachability constraints are inferred;
* the *door graph* with metric edge lengths, from which minimum walking
  distances (and hence traveling-time constraints) are computed;
* per-floor *footprints* that the grid partitioning and the reader
  placement rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import MapModelError, UnknownLocationError
from repro.geometry import Point, Rect, Segment

__all__ = ["Location", "Door", "Building"]

#: Location kinds. ``room`` locations are where objects dwell; ``corridor``
#: and ``staircase`` are transit locations (objects cross them quickly),
#: which is why the paper's experiments attach latency constraints to rooms
#: only (Section 6.3).
LOCATION_KINDS = ("room", "corridor", "staircase")

#: Transit kinds — used by constraint inference (no latency constraint) and
#: by the trajectory generator (short rests).
TRANSIT_KINDS = frozenset({"corridor", "staircase"})


@dataclass(frozen=True)
class Location:
    """A named location: a rectangular footprint on one floor of a building."""

    name: str
    floor: int
    rect: Rect
    kind: str = "room"

    def __post_init__(self) -> None:
        if self.kind not in LOCATION_KINDS:
            raise MapModelError(
                f"location {self.name!r}: unknown kind {self.kind!r}; "
                f"expected one of {LOCATION_KINDS}"
            )
        if self.rect.area <= 0:
            raise MapModelError(f"location {self.name!r} has a degenerate footprint")

    @property
    def is_transit(self) -> bool:
        """Whether objects merely pass through (corridors and staircases)."""
        return self.kind in TRANSIT_KINDS


@dataclass(frozen=True)
class Door:
    """A connection between two locations.

    For same-floor doors, ``point_a == point_b`` is the door position on the
    shared wall and ``length`` is 0.  For staircase doors (different floors),
    the two points are the flight endpoints in each floor's coordinates and
    ``length`` is the walking length of the flight.
    """

    loc_a: str
    loc_b: str
    point_a: Point
    point_b: Point
    length: float = 0.0

    def __post_init__(self) -> None:
        if self.loc_a == self.loc_b:
            raise MapModelError(f"door connects {self.loc_a!r} to itself")
        if self.length < 0:
            raise MapModelError(f"door {self.loc_a!r}-{self.loc_b!r}: negative length")

    def connects(self, name: str) -> bool:
        """Whether this door opens onto location ``name``."""
        return name in (self.loc_a, self.loc_b)

    def other(self, name: str) -> str:
        """The location on the other side of the door from ``name``."""
        if name == self.loc_a:
            return self.loc_b
        if name == self.loc_b:
            return self.loc_a
        raise MapModelError(f"door {self.loc_a!r}-{self.loc_b!r} does not touch {name!r}")

    def point_in(self, name: str) -> Point:
        """The door endpoint expressed in ``name``'s floor coordinates."""
        if name == self.loc_a:
            return self.point_a
        if name == self.loc_b:
            return self.point_b
        raise MapModelError(f"door {self.loc_a!r}-{self.loc_b!r} does not touch {name!r}")


def _shared_boundary(a: Rect, b: Rect, tol: float = 1e-6) -> Optional[Segment]:
    """The shared boundary segment of two touching rectangles, if any."""
    # Vertical shared wall: a's right edge on b's left edge (or vice versa).
    for x in (a.x1, a.x0):
        if abs(x - b.x0) < tol or abs(x - b.x1) < tol:
            y0 = max(a.y0, b.y0)
            y1 = min(a.y1, b.y1)
            if y1 - y0 > tol:
                return Segment(Point(x, y0), Point(x, y1))
    # Horizontal shared wall.
    for y in (a.y1, a.y0):
        if abs(y - b.y0) < tol or abs(y - b.y1) < tol:
            x0 = max(a.x0, b.x0)
            x1 = min(a.x1, b.x1)
            if x1 - x0 > tol:
                return Segment(Point(x0, y), Point(x1, y))
    return None


class Building:
    """A multi-floor building: locations plus doors.

    Locations are added first, then doors; :meth:`validate` (called lazily by
    consumers, or explicitly) checks structural sanity.  The class is a plain
    container — all probabilistic machinery lives elsewhere.
    """

    def __init__(self, name: str = "building") -> None:
        self.name = name
        self._locations: Dict[str, Location] = {}
        self._order: List[str] = []
        self._doors: List[Door] = []
        self._doors_by_location: Dict[str, List[Door]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_location(self, name: str, floor: int, rect: Rect,
                     kind: str = "room") -> Location:
        """Add a location; returns the created :class:`Location`.

        Raises :class:`MapModelError` on duplicate names or footprints
        overlapping an existing location of the same floor.
        """
        if name in self._locations:
            raise MapModelError(f"duplicate location name: {name!r}")
        location = Location(name=name, floor=floor, rect=rect, kind=kind)
        for existing in self._locations.values():
            if existing.floor == floor and _interiors_overlap(existing.rect, rect):
                raise MapModelError(
                    f"location {name!r} overlaps {existing.name!r} on floor {floor}"
                )
        self._locations[name] = location
        self._order.append(name)
        self._doors_by_location[name] = []
        return location

    def add_door(self, loc_a: str, loc_b: str, *,
                 point: Optional[Point] = None,
                 point_b: Optional[Point] = None,
                 length: float = 0.0) -> Door:
        """Connect two locations with a door.

        For same-floor locations, ``point`` defaults to the midpoint of the
        shared boundary (an error is raised if the footprints do not touch).
        For different-floor locations (a staircase flight), both ``point``
        and ``point_b`` default to the respective footprint centres, and
        ``length`` should be the walking length of the flight.
        """
        a = self.location(loc_a)
        b = self.location(loc_b)
        if a.floor == b.floor:
            if point is None:
                boundary = _shared_boundary(a.rect, b.rect)
                if boundary is None:
                    raise MapModelError(
                        f"locations {loc_a!r} and {loc_b!r} share no boundary; "
                        "pass an explicit door point"
                    )
                point = boundary.midpoint
            door = Door(loc_a, loc_b, point, point_b if point_b is not None else point,
                        length=length)
        else:
            pa = point if point is not None else a.rect.center
            pb = point_b if point_b is not None else b.rect.center
            door = Door(loc_a, loc_b, pa, pb, length=length)
        for existing in self._doors_by_location[loc_a]:
            if existing.connects(loc_b) and existing.point_a == door.point_a:
                raise MapModelError(f"duplicate door between {loc_a!r} and {loc_b!r}")
        self._doors.append(door)
        self._doors_by_location[loc_a].append(door)
        self._doors_by_location[loc_b].append(door)
        return door

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    @property
    def location_names(self) -> Tuple[str, ...]:
        """All location names, in insertion order."""
        return tuple(self._order)

    @property
    def locations(self) -> Tuple[Location, ...]:
        """All locations, in insertion order."""
        return tuple(self._locations[name] for name in self._order)

    @property
    def doors(self) -> Tuple[Door, ...]:
        return tuple(self._doors)

    @property
    def floors(self) -> Tuple[int, ...]:
        """Sorted distinct floor indices."""
        return tuple(sorted({loc.floor for loc in self._locations.values()}))

    def __len__(self) -> int:
        return len(self._locations)

    def __contains__(self, name: str) -> bool:
        return name in self._locations

    def location(self, name: str) -> Location:
        """The location named ``name`` (raises :class:`UnknownLocationError`)."""
        try:
            return self._locations[name]
        except KeyError:
            raise UnknownLocationError(name) from None

    def locations_on_floor(self, floor: int) -> Tuple[Location, ...]:
        """Locations whose footprint is on ``floor``, in insertion order."""
        return tuple(loc for loc in self.locations if loc.floor == floor)

    def floor_bounds(self, floor: int) -> Rect:
        """The bounding rectangle of all footprints on ``floor``."""
        rects = [loc.rect for loc in self.locations_on_floor(floor)]
        if not rects:
            raise MapModelError(f"building has no locations on floor {floor}")
        return Rect(min(r.x0 for r in rects), min(r.y0 for r in rects),
                    max(r.x1 for r in rects), max(r.y1 for r in rects))

    def doors_of(self, name: str) -> Tuple[Door, ...]:
        """All doors opening onto location ``name``."""
        self.location(name)
        return tuple(self._doors_by_location[name])

    def neighbors(self, name: str) -> Tuple[str, ...]:
        """Locations directly connected to ``name`` through a door (sorted)."""
        return tuple(sorted({door.other(name) for door in self.doors_of(name)}))

    def are_adjacent(self, loc_a: str, loc_b: str) -> bool:
        """Whether a door directly connects the two locations."""
        return loc_b in self.neighbors(loc_a)

    def location_at(self, floor: int, point: Point) -> Optional[str]:
        """The name of the location containing ``point`` on ``floor``.

        Boundary points may belong to two footprints; the first location in
        insertion order wins (tests rely on determinism, not on a specific
        tie-break).  Returns ``None`` for points outside every footprint.
        """
        for loc in self.locations:
            if loc.floor == floor and loc.rect.contains(point):
                return loc.name
        return None

    def walls_between(self, floor: int, a: Point, b: Point) -> int:
        """How many location boundaries the open segment ``a``–``b`` crosses.

        Used by the reader model to attenuate radio signals through walls.
        Each distinct wall segment intersected counts once; shared walls
        between adjacent rooms are stored once per room, so a single physical
        wall between two rooms counts twice — the attenuation constant is
        calibrated with that convention in mind.
        """
        path = Segment(a, b)
        crossings = 0
        for loc in self.locations_on_floor(floor):
            for edge in loc.rect.edges():
                if _properly_crosses(path, edge):
                    crossings += 1
        return crossings

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural sanity; raises :class:`MapModelError` on problems.

        Checks: at least one location, same-floor doors sit on (or near) both
        footprints' boundaries, staircase doors have positive length, and the
        door graph does not reference unknown locations (impossible through
        the public API, but cheap to assert).
        """
        if not self._locations:
            raise MapModelError("building has no locations")
        for door in self._doors:
            a = self.location(door.loc_a)
            b = self.location(door.loc_b)
            if a.floor == b.floor:
                if not (a.rect.contains(door.point_a, tol=1e-3)
                        and b.rect.contains(door.point_a, tol=1e-3)):
                    raise MapModelError(
                        f"door between {door.loc_a!r} and {door.loc_b!r} at "
                        f"({door.point_a.x}, {door.point_a.y}) is not on the "
                        "shared boundary"
                    )
            else:
                if door.length <= 0:
                    raise MapModelError(
                        f"staircase door {door.loc_a!r}-{door.loc_b!r} "
                        "must have a positive walking length"
                    )

    def connected_location_pairs(self) -> Set[Tuple[str, str]]:
        """Ordered pairs of distinct locations connected by *some* path."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.location_names)
        graph.add_edges_from((door.loc_a, door.loc_b) for door in self._doors)
        pairs: Set[Tuple[str, str]] = set()
        for component in nx.connected_components(graph):
            members = sorted(component)
            for a in members:
                for b in members:
                    if a != b:
                        pairs.add((a, b))
        return pairs

    def __repr__(self) -> str:
        return (f"Building({self.name!r}, locations={len(self._locations)}, "
                f"doors={len(self._doors)}, floors={len(self.floors)})")


def _interiors_overlap(a: Rect, b: Rect, tol: float = 1e-9) -> bool:
    """Whether the two rectangles overlap on more than a boundary."""
    return (a.x0 + tol < b.x1 and b.x0 + tol < a.x1
            and a.y0 + tol < b.y1 and b.y0 + tol < a.y1)


def _properly_crosses(path: Segment, wall: Segment) -> bool:
    """Whether ``path`` crosses ``wall`` away from the path's endpoints.

    Touching a wall exactly at one of the path's endpoints (e.g. a reader
    mounted on that wall) is not a crossing.
    """
    if not path.intersects(wall):
        return False
    # Endpoint touches do not count as a wall in the way.
    for endpoint in (path.a, path.b):
        if wall.distance_to_point(endpoint) < 1e-9:
            return False
    return True
