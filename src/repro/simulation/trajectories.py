"""The trajectory generator (Section 6.4, first module).

Each trajectory is generated iteratively, exactly as the paper describes:
the object enters the current location at an *entrance point*, walks (at a
per-leg random velocity) to a random *rest point* inside the location,
stays there for a random latency, walks to a random *exit door*, and the
chosen door determines the next location and its entrance point.  The
result is one ``(floor, x, y)`` position per timestep plus the ground-truth
location labels the accuracy experiments compare against.

Two deliberate refinements over the paper's one-paragraph description
(DESIGN.md §3):

* rests in *transit* locations (corridors, staircases) are much shorter
  than in rooms — this is what makes the paper's choice of excluding
  corridors from latency constraints meaningful;
* staircase flights between floors take ``length / velocity`` seconds, so
  inter-floor travel is as slow as the walking-distance model assumes.

The generated ground truth provably satisfies every constraint inferred
with ``max_speed >= velocity_range[1]`` and
``min_stay <= room_rest_range[0]``: consecutive samples are never more than
the leg velocity apart, rooms are never crossed without resting, and all
moves pass through doors.  An integration test asserts this end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

try:
    import numpy as np
except ImportError:  # pragma: no cover - no-numpy environments
    from repro.optional import missing_dependency

    np = missing_dependency("numpy", "repro[numpy]")  # type: ignore[assignment]

from repro.errors import MapModelError
from repro.geometry import Point
from repro.mapmodel.building import Building, Door, Location

__all__ = ["MovementParameters", "GroundTruthTrajectory", "TrajectoryGenerator"]

#: Margin (metres) kept from footprint boundaries when drawing rest points,
#: so rest positions never sit on a wall / in an ambiguous grid cell.
_REST_MARGIN = 0.3


@dataclass(frozen=True)
class MovementParameters:
    """The motility knobs of the generator (paper values as defaults).

    Velocities are metres per timestep, rests are in timesteps; each rest
    is drawn uniformly from the closed integer range.
    """

    velocity_range: Tuple[float, float] = (1.0, 2.0)
    room_rest_range: Tuple[int, int] = (30, 60)
    transit_rest_range: Tuple[int, int] = (0, 5)

    def __post_init__(self) -> None:
        lo, hi = self.velocity_range
        if not (0 < lo <= hi):
            raise MapModelError(f"bad velocity range: {self.velocity_range}")
        for name, (rlo, rhi) in (("room_rest_range", self.room_rest_range),
                                 ("transit_rest_range", self.transit_rest_range)):
            if not (0 <= rlo <= rhi):
                raise MapModelError(f"bad {name}: {(rlo, rhi)}")


@dataclass
class GroundTruthTrajectory:
    """The generator's output: per-timestep positions and location labels."""

    building: Building
    floors: List[int]
    points: List[Point]
    locations: List[str]

    def __post_init__(self) -> None:
        if not (len(self.floors) == len(self.points) == len(self.locations)):
            raise MapModelError("ground-truth components have different lengths")

    @property
    def duration(self) -> int:
        return len(self.locations)

    def location_at(self, tau: int) -> str:
        return self.locations[tau]

    def visited_locations(self) -> Tuple[str, ...]:
        """Distinct locations in order of first visit."""
        seen: List[str] = []
        for location in self.locations:
            if not seen or seen[-1] != location:
                if location not in seen:
                    seen.append(location)
        return tuple(seen)

    def stay_sequence(self) -> Tuple[Tuple[str, int], ...]:
        """The trajectory as maximal stays ``(location, length)``."""
        stays: List[Tuple[str, int]] = []
        for location in self.locations:
            if stays and stays[-1][0] == location:
                stays[-1] = (location, stays[-1][1] + 1)
            else:
                stays.append((location, 1))
        return tuple(stays)


class TrajectoryGenerator:
    """Generates ground-truth trajectories over a building."""

    def __init__(self, building: Building,
                 parameters: MovementParameters = MovementParameters(),
                 rng: Optional[np.random.Generator] = None) -> None:
        building.validate()
        self.building = building
        self.parameters = parameters
        self.rng = rng if rng is not None else np.random.default_rng()

    # ------------------------------------------------------------------
    def generate(self, duration: int) -> GroundTruthTrajectory:
        """One trajectory of exactly ``duration`` timesteps."""
        if duration < 1:
            raise MapModelError(f"duration must be >= 1, got {duration}")
        floors: List[int] = []
        points: List[Point] = []
        labels: List[str] = []

        location = self._random_start_location()
        point = self._entrance_point(location)

        def emit(sample_point: Point) -> bool:
            floors.append(location.floor)
            points.append(sample_point)
            labels.append(location.name)
            return len(labels) >= duration

        # The object is at the entrance at timestep 0.
        if emit(point):
            return GroundTruthTrajectory(self.building, floors, points, labels)

        while True:
            velocity = float(self.rng.uniform(*self.parameters.velocity_range))
            rest_point = self._random_rest_point(location)
            for sample in self._walk(point, rest_point, velocity):
                if emit(sample):
                    return GroundTruthTrajectory(
                        self.building, floors, points, labels)
            point = rest_point
            for _ in range(self._random_rest(location)):
                if emit(point):
                    return GroundTruthTrajectory(
                        self.building, floors, points, labels)

            door = self._random_exit_door(location)
            if door is None:
                # A sealed room: the object can only stay put.
                continue
            exit_point = door.point_in(location.name)
            for sample in self._walk(point, exit_point, velocity):
                if emit(sample):
                    return GroundTruthTrajectory(
                        self.building, floors, points, labels)
            point = exit_point

            next_location = self.building.location(door.other(location.name))
            if door.length > 0:
                # A staircase flight: spend its walking time crossing,
                # split between the two stair rooms.
                flight_steps = max(1, int(round(door.length / velocity)))
                steps_here = flight_steps // 2
                for _ in range(steps_here):
                    if emit(point):
                        return GroundTruthTrajectory(
                            self.building, floors, points, labels)
            location = next_location
            point = door.point_in(location.name)
            if door.length > 0:
                flight_steps = max(1, int(round(door.length / velocity)))
                for _ in range(flight_steps - flight_steps // 2):
                    if emit(point):
                        return GroundTruthTrajectory(
                            self.building, floors, points, labels)

    def generate_many(self, duration: int, count: int
                      ) -> List[GroundTruthTrajectory]:
        """``count`` independent trajectories of ``duration`` timesteps."""
        return [self.generate(duration) for _ in range(count)]

    # ------------------------------------------------------------------
    def _random_start_location(self) -> Location:
        names = self.building.location_names
        return self.building.location(names[int(self.rng.integers(len(names)))])

    def _entrance_point(self, location: Location) -> Point:
        doors = self.building.doors_of(location.name)
        if doors:
            door = doors[int(self.rng.integers(len(doors)))]
            return location.rect.clamp(door.point_in(location.name))
        return location.rect.center

    def _random_rest_point(self, location: Location) -> Point:
        rect = location.rect
        margin_x = min(_REST_MARGIN, rect.width / 4.0)
        margin_y = min(_REST_MARGIN, rect.height / 4.0)
        x = float(self.rng.uniform(rect.x0 + margin_x, rect.x1 - margin_x))
        y = float(self.rng.uniform(rect.y0 + margin_y, rect.y1 - margin_y))
        return Point(x, y)

    def _random_rest(self, location: Location) -> int:
        lo, hi = (self.parameters.transit_rest_range if location.is_transit
                  else self.parameters.room_rest_range)
        return int(self.rng.integers(lo, hi + 1))

    def _random_exit_door(self, location: Location) -> Optional[Door]:
        doors = self.building.doors_of(location.name)
        if not doors:
            return None
        return doors[int(self.rng.integers(len(doors)))]

    def _walk(self, start: Point, end: Point, velocity: float) -> List[Point]:
        """Per-timestep samples of a straight walk (excluding ``start``).

        The final (possibly shorter) step lands exactly on ``end``; every
        consecutive pair of samples is at most ``velocity`` apart.
        """
        distance = start.distance_to(end)
        samples: List[Point] = []
        travelled = velocity
        while travelled < distance:
            samples.append(start.towards(end, travelled))
            travelled += velocity
        samples.append(end)
        return samples
