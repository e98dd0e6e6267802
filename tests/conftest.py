"""Shared fixtures: tiny maps, constraint sets and datasets.

Heavy objects (datasets) are session-scoped; everything is seeded so the
whole suite is deterministic.
"""

from __future__ import annotations

import pytest

try:
    import numpy as np
except ImportError:  # pragma: no cover - the no-numpy CI leg
    np = None

from repro import (
    ConstraintSet,
    Latency,
    LSequence,
    TravelingTime,
    Unreachable,
    build_dataset,
    corridor_map,
    two_room_map,
)
from repro.mapmodel.floorplans import multi_floor_building


@pytest.fixture
def rng():
    if np is None:
        pytest.skip("numpy not installed (repro[numpy] extra)")
    return np.random.default_rng(1234)


@pytest.fixture
def two_rooms():
    """Rooms A and B joined by one door."""
    return two_room_map()


@pytest.fixture
def corridor4():
    """Four rooms along a corridor; rooms only connect to the corridor."""
    return corridor_map(4)


@pytest.fixture
def one_floor():
    """A single paper-style floor (7 rooms + corridor + stairs room)."""
    return multi_floor_building(1, name="one-floor")


@pytest.fixture
def two_floors():
    """Two paper-style floors joined by a staircase."""
    return multi_floor_building(2, name="two-floors")


@pytest.fixture
def simple_constraints():
    """A hand-written mixed constraint set over abstract locations A-D."""
    return ConstraintSet([
        Unreachable("A", "C"),
        Unreachable("C", "A"),
        TravelingTime("A", "D", 3),
        Latency("B", 2),
    ])


@pytest.fixture
def uniform_lsequence():
    """Three steps, two candidates each, uniform priors."""
    return LSequence([
        {"A": 0.5, "B": 0.5},
        {"B": 0.5, "C": 0.5},
        {"C": 0.5, "D": 0.5},
    ])


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small end-to-end dataset over a one-floor building."""
    pytest.importorskip("numpy", exc_type=ImportError)
    building = multi_floor_building(1, name="tiny")
    return build_dataset(building, durations=(40, 80), per_duration=2, seed=5)
