"""JSON serialization of buildings, constraints, readings and ground truth.

The formats are versioned (a ``"format"`` tag per artefact) and minimal:
exactly the information needed to reconstruct the object.  Floats are
written as-is (JSON doubles), so round-trips are exact.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Union

from repro.core.constraints import (
    Constraint,
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.core.lsequence import Reading, ReadingSequence
from repro.errors import ReproError
from repro.geometry import Point, Rect
from repro.mapmodel.building import Building

if TYPE_CHECKING:
    # load_trajectory imports it when called: the simulation layer loads
    # numpy, which serve and its shard workers, reading their
    # constraints here, do not need.
    from repro.simulation.trajectories import GroundTruthTrajectory

__all__ = [
    "save_building", "load_building", "building_to_dict", "building_from_dict",
    "save_constraints", "load_constraints",
    "constraints_to_dicts", "constraints_from_dicts",
    "save_readings", "load_readings",
    "save_trajectory", "load_trajectory",
    "save_readers", "load_readers",
]

PathLike = Union[str, Path]


def _write(path: PathLike, payload: Dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def _read(path: PathLike, expected_format: str) -> Dict:
    payload = json.loads(Path(path).read_text())
    found = payload.get("format")
    if found != expected_format:
        raise ReproError(
            f"{path}: expected format {expected_format!r}, found {found!r}")
    return payload


# ----------------------------------------------------------------------
# buildings
# ----------------------------------------------------------------------

def building_to_dict(building: Building) -> Dict:
    """The JSON-ready representation of a building."""
    return {
        "format": "rfid-ctg/building@1",
        "name": building.name,
        "locations": [
            {
                "name": loc.name,
                "floor": loc.floor,
                "kind": loc.kind,
                "rect": [loc.rect.x0, loc.rect.y0, loc.rect.x1, loc.rect.y1],
            }
            for loc in building.locations
        ],
        "doors": [
            {
                "a": door.loc_a,
                "b": door.loc_b,
                "point_a": list(door.point_a.as_tuple()),
                "point_b": list(door.point_b.as_tuple()),
                "length": door.length,
            }
            for door in building.doors
        ],
    }


def building_from_dict(payload: Dict) -> Building:
    """Reconstruct a building from :func:`building_to_dict` output."""
    building = Building(payload["name"])
    for entry in payload["locations"]:
        x0, y0, x1, y1 = entry["rect"]
        building.add_location(entry["name"], entry["floor"],
                              Rect(x0, y0, x1, y1), kind=entry["kind"])
    for entry in payload["doors"]:
        building.add_door(entry["a"], entry["b"],
                          point=Point(*entry["point_a"]),
                          point_b=Point(*entry["point_b"]),
                          length=entry["length"])
    building.validate()
    return building


def save_building(building: Building, path: PathLike) -> None:
    """Write a building as JSON."""
    _write(path, building_to_dict(building))


def load_building(path: PathLike) -> Building:
    """Read a building written by :func:`save_building`."""
    return building_from_dict(_read(path, "rfid-ctg/building@1"))


# ----------------------------------------------------------------------
# constraints
# ----------------------------------------------------------------------

def _constraint_to_dict(constraint: Constraint) -> Dict:
    if isinstance(constraint, Unreachable):
        return {"kind": "unreachable", "a": constraint.loc_a,
                "b": constraint.loc_b}
    if isinstance(constraint, TravelingTime):
        return {"kind": "travelingTime", "a": constraint.loc_a,
                "b": constraint.loc_b, "steps": constraint.steps}
    if isinstance(constraint, Latency):
        return {"kind": "latency", "location": constraint.location,
                "duration": constraint.duration}
    raise ReproError(f"cannot serialise constraint {constraint!r}")


def _constraint_from_dict(entry: Dict) -> Constraint:
    kind = entry.get("kind")
    if kind == "unreachable":
        return Unreachable(entry["a"], entry["b"])
    if kind == "travelingTime":
        return TravelingTime(entry["a"], entry["b"], entry["steps"])
    if kind == "latency":
        return Latency(entry["location"], entry["duration"])
    raise ReproError(f"unknown constraint kind {kind!r}")


def constraints_to_dicts(constraints: ConstraintSet) -> List[Dict]:
    """The constraint set as JSON-ready dicts (``constraints@1`` entries).

    The list form lets other formats embed a constraint set inside their
    own payload — the stream checkpoints of :mod:`repro.streaming` carry
    one in their meta section so a resumed session can verify it is
    running under the very constraints the checkpoint was taken under.
    """
    return [_constraint_to_dict(c) for c in constraints]


def constraints_from_dicts(entries: Iterable[Dict]) -> ConstraintSet:
    """The inverse of :func:`constraints_to_dicts`."""
    return ConstraintSet(_constraint_from_dict(entry) for entry in entries)


def save_constraints(constraints: ConstraintSet, path: PathLike) -> None:
    """Write a constraint set as JSON."""
    _write(path, {
        "format": "rfid-ctg/constraints@1",
        "constraints": [_constraint_to_dict(c) for c in constraints],
    })


def load_constraints(path: PathLike) -> ConstraintSet:
    """Read a constraint set written by :func:`save_constraints`."""
    payload = _read(path, "rfid-ctg/constraints@1")
    return ConstraintSet(_constraint_from_dict(entry)
                         for entry in payload["constraints"])


# ----------------------------------------------------------------------
# readings
# ----------------------------------------------------------------------

def save_readings(readings: ReadingSequence, path: PathLike) -> None:
    """Write a reading sequence as JSON (one reader list per timestep)."""
    _write(path, {
        "format": "rfid-ctg/readings@1",
        "readings": [sorted(reading.readers) for reading in readings],
    })


def load_readings(path: PathLike) -> ReadingSequence:
    """Read a reading sequence written by :func:`save_readings`."""
    payload = _read(path, "rfid-ctg/readings@1")
    return ReadingSequence(
        Reading(time, frozenset(readers))
        for time, readers in enumerate(payload["readings"]))


# ----------------------------------------------------------------------
# reader deployments
# ----------------------------------------------------------------------

def save_readers(model, path: PathLike) -> None:
    """Write a reader deployment (positions, curves, attenuation) as JSON."""
    _write(path, {
        "format": "rfid-ctg/readers@1",
        "wall_attenuation": model.wall_attenuation,
        "readers": [
            {
                "name": reader.name,
                "floor": reader.floor,
                "position": list(reader.position.as_tuple()),
                "major_radius": reader.major_radius,
                "max_radius": reader.max_radius,
                "major_probability": reader.major_probability,
            }
            for reader in model.readers
        ],
    })


def load_readers(path: PathLike, building: Building):
    """Read a reader deployment written by :func:`save_readers`."""
    from repro.rfid.readers import Reader, ReaderModel

    payload = _read(path, "rfid-ctg/readers@1")
    readers = [
        Reader(name=entry["name"], floor=entry["floor"],
               position=Point(*entry["position"]),
               major_radius=entry["major_radius"],
               max_radius=entry["max_radius"],
               major_probability=entry["major_probability"])
        for entry in payload["readers"]
    ]
    return ReaderModel(building, readers,
                       wall_attenuation=payload["wall_attenuation"])


# ----------------------------------------------------------------------
# ground-truth trajectories
# ----------------------------------------------------------------------

def save_trajectory(trajectory: GroundTruthTrajectory, path: PathLike) -> None:
    """Write a ground-truth trajectory (positions + labels) as JSON.

    The building is referenced by name only — pair the file with a
    building JSON when archiving a dataset.
    """
    _write(path, {
        "format": "rfid-ctg/trajectory@1",
        "building": trajectory.building.name,
        "floors": trajectory.floors,
        "points": [[p.x, p.y] for p in trajectory.points],
        "locations": trajectory.locations,
    })


def load_trajectory(path: PathLike,
                    building: Building) -> GroundTruthTrajectory:
    """Read a ground-truth trajectory written by :func:`save_trajectory`."""
    from repro.simulation.trajectories import GroundTruthTrajectory

    payload = _read(path, "rfid-ctg/trajectory@1")
    if payload["building"] != building.name:
        raise ReproError(
            f"{path}: trajectory belongs to building "
            f"{payload['building']!r}, not {building.name!r}")
    return GroundTruthTrajectory(
        building=building,
        floors=list(payload["floors"]),
        points=[Point(x, y) for x, y in payload["points"]],
        locations=list(payload["locations"]))
