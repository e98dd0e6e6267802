"""Tests for walking distances and traveling-time derivation."""

import math

import pytest

from repro.errors import MapModelError
from repro.geometry import Rect
from repro.mapmodel.building import Building
from repro.mapmodel.distances import WalkingDistances


class TestBasicDistances:
    def test_self_distance_is_zero(self, two_rooms):
        d = WalkingDistances(two_rooms)
        assert d.distance("A", "A") == 0.0

    def test_adjacent_rooms_have_zero_distance(self, two_rooms):
        # An object may stand right at the shared door.
        d = WalkingDistances(two_rooms)
        assert d.distance("A", "B") == 0.0

    def test_symmetry(self, corridor4):
        d = WalkingDistances(corridor4)
        for a in corridor4.location_names:
            for b in corridor4.location_names:
                assert d.distance(a, b) == pytest.approx(d.distance(b, a))

    def test_corridor_rooms_distance_is_door_gap(self, corridor4):
        # room1 and room2 doors are 5 m apart along the corridor.
        d = WalkingDistances(corridor4)
        assert d.distance("room1", "room2") == pytest.approx(5.0)
        assert d.distance("room1", "room4") == pytest.approx(15.0)

    def test_non_negative_and_finite_when_connected(self, one_floor):
        # Note: the location-to-location travel distance is *not* a metric
        # (an object can stand at different doors of the same location, so
        # the triangle inequality through a large location fails); it only
        # needs to be a valid lower bound for TT constraints.
        d = WalkingDistances(one_floor)
        names = one_floor.location_names
        for a in names:
            for b in names:
                value = d.distance(a, b)
                assert value >= 0.0
                assert math.isfinite(value)

    def test_unreachable_is_infinite(self):
        b = Building()
        b.add_location("A", 0, Rect(0, 0, 1, 1))
        b.add_location("B", 0, Rect(5, 0, 6, 1))
        d = WalkingDistances(b)
        assert math.isinf(d.distance("A", "B"))
        assert not d.is_reachable("A", "B")
        assert d.is_reachable("A", "A")


class TestStairDistances:
    def test_flight_length_counts(self, two_floors):
        d = WalkingDistances(two_floors)
        flight = [door for door in two_floors.doors if door.length > 0][0]
        # Unlike point-like doors, a staircase flight has real length:
        # reaching the next floor's stair room costs the flight walk even
        # though the rooms are directly connected.
        assert d.distance("F0_stairs", "F1_stairs") == pytest.approx(
            flight.length)
        # Crossing floors from a room includes the flight length.
        cross = d.distance("F0_R1", "F1_R1")
        same = d.distance("F0_R1", "F0_stairs")
        assert cross >= same + flight.length - 1e-9


class TestTravelingTime:
    def test_rounding_up(self, corridor4):
        d = WalkingDistances(corridor4)
        # 5 m at 2 m/step -> ceil(2.5) = 3 steps.
        assert d.min_traveling_time("room1", "room2", 2.0) == 3

    def test_exact_division(self, corridor4):
        d = WalkingDistances(corridor4)
        assert d.min_traveling_time("room1", "room2", 2.5) == 2

    def test_bad_speed_rejected(self, corridor4):
        d = WalkingDistances(corridor4)
        with pytest.raises(MapModelError):
            d.min_traveling_time("room1", "room2", 0.0)

    def test_unreachable_pair_rejected(self):
        b = Building()
        b.add_location("A", 0, Rect(0, 0, 1, 1))
        b.add_location("B", 0, Rect(5, 0, 6, 1))
        d = WalkingDistances(b)
        with pytest.raises(MapModelError):
            d.min_traveling_time("A", "B", 1.0)

    def test_as_dict_snapshot(self, two_rooms):
        d = WalkingDistances(two_rooms)
        table = d.as_dict()
        assert table["A"]["B"] == d.distance("A", "B")
        table["A"]["B"] = 999.0          # mutating the copy is harmless
        assert d.distance("A", "B") == 0.0


# ----------------------------------------------------------------------
# the stdlib Dijkstra and BFS against networkx
# ----------------------------------------------------------------------
def networkx_answers(building):
    """``as_dict()`` and ``connected_location_pairs()`` as networkx
    computes them over the same door graph: the reference."""
    nx = pytest.importorskip("networkx")
    names = building.location_names
    doors = building.doors
    sides = {name: [] for name in names}
    graph = nx.Graph()
    for door_id, door in enumerate(doors):
        side_a, side_b = (door_id, door.loc_a), (door_id, door.loc_b)
        graph.add_edge(side_a, side_b, weight=door.length)
        sides[door.loc_a].append(side_a)
        sides[door.loc_b].append(side_b)
    for name in names:
        for i, side_i in enumerate(sides[name]):
            for side_j in sides[name][i + 1:]:
                walk = doors[side_i[0]].point_in(name).distance_to(
                    doors[side_j[0]].point_in(name))
                graph.add_edge(side_i, side_j, weight=walk)
    table = {}
    for name in names:
        lengths = (nx.multi_source_dijkstra_path_length(graph, sides[name])
                   if sides[name] else {})
        table[name] = {
            other: 0.0 if other == name else min(
                (lengths[side] for side in sides[other] if side in lengths),
                default=math.inf)
            for other in names}
    locations = nx.Graph()
    locations.add_nodes_from(names)
    locations.add_edges_from((door.loc_a, door.loc_b) for door in doors)
    pairs = {(a, b) for component in nx.connected_components(locations)
             for a in component for b in component if a != b}
    return table, pairs


def assert_matches_networkx(building):
    table, pairs = networkx_answers(building)
    assert WalkingDistances(building).as_dict() == table
    assert building.connected_location_pairs() == pairs


class TestAgainstNetworkx:
    @pytest.mark.parametrize("name", ["floor1", "syn1", "syn2"])
    def test_paper_buildings(self, name):
        from repro.mapmodel.floorplans import (
            multi_floor_building,
            syn1_building,
            syn2_building,
        )

        builders = {"floor1": lambda: multi_floor_building(1),
                    "syn1": syn1_building, "syn2": syn2_building}
        assert_matches_networkx(builders[name]())

    def test_random_plans(self):
        import random

        np = pytest.importorskip("numpy", exc_type=ImportError)
        from repro.mapmodel.random_plans import random_building

        shapes = random.Random(26)
        for seed in range(210):
            building = random_building(
                num_floors=1 + seed % 3, rooms_x=shapes.randint(2, 4),
                rooms_y=shapes.randint(1, 3),
                extra_door_fraction=shapes.choice((0.0, 0.3, 0.7)),
                rng=np.random.default_rng(seed))
            assert_matches_networkx(building)

    def test_disconnected_plan(self):
        b = Building()
        for index, name in enumerate("ABCD"):
            b.add_location(name, 0, Rect(10 * index, 0, 10 * index + 5, 5))
        b.add_location("E", 0, Rect(5, 0, 10, 5))
        b.add_door("A", "E")
        b.add_door("E", "B")
        assert_matches_networkx(b)
        assert ("C", "D") not in b.connected_location_pairs()
