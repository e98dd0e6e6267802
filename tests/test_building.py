"""Unit tests for the building model (locations, doors, adjacency)."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import MapModelError, UnknownLocationError
from repro.geometry import Point, Rect, Segment
from repro.mapmodel.building import Building, Door, Location, _properly_crosses


def make_two_rooms() -> Building:
    b = Building("b")
    b.add_location("A", 0, Rect(0, 0, 5, 5))
    b.add_location("B", 0, Rect(5, 0, 10, 5))
    b.add_door("A", "B")
    return b


class TestLocation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(MapModelError):
            Location("x", 0, Rect(0, 0, 1, 1), kind="garden")

    def test_degenerate_footprint_rejected(self):
        with pytest.raises(MapModelError):
            Location("x", 0, Rect(0, 0, 0, 1))

    def test_transit_kinds(self):
        assert Location("c", 0, Rect(0, 0, 1, 1), kind="corridor").is_transit
        assert Location("s", 0, Rect(0, 0, 1, 1), kind="staircase").is_transit
        assert not Location("r", 0, Rect(0, 0, 1, 1), kind="room").is_transit


class TestDoor:
    def test_self_door_rejected(self):
        with pytest.raises(MapModelError):
            Door("A", "A", Point(0, 0), Point(0, 0))

    def test_negative_length_rejected(self):
        with pytest.raises(MapModelError):
            Door("A", "B", Point(0, 0), Point(0, 0), length=-1)

    def test_other_and_point_in(self):
        door = Door("A", "B", Point(1, 1), Point(2, 2))
        assert door.other("A") == "B"
        assert door.other("B") == "A"
        assert door.point_in("A") == Point(1, 1)
        assert door.point_in("B") == Point(2, 2)
        with pytest.raises(MapModelError):
            door.other("C")


class TestBuilding:
    def test_duplicate_location_rejected(self):
        b = Building()
        b.add_location("A", 0, Rect(0, 0, 1, 1))
        with pytest.raises(MapModelError):
            b.add_location("A", 0, Rect(2, 0, 3, 1))

    def test_overlapping_footprints_rejected(self):
        b = Building()
        b.add_location("A", 0, Rect(0, 0, 2, 2))
        with pytest.raises(MapModelError):
            b.add_location("B", 0, Rect(1, 1, 3, 3))

    def test_same_footprint_other_floor_allowed(self):
        b = Building()
        b.add_location("A", 0, Rect(0, 0, 2, 2))
        b.add_location("B", 1, Rect(0, 0, 2, 2))
        assert len(b) == 2

    def test_touching_footprints_allowed(self):
        b = make_two_rooms()
        assert set(b.location_names) == {"A", "B"}

    def test_unknown_location_lookup(self):
        b = make_two_rooms()
        with pytest.raises(UnknownLocationError):
            b.location("missing")

    def test_auto_door_point_on_shared_wall(self):
        b = make_two_rooms()
        (door,) = b.doors
        assert door.point_a == Point(5, 2.5)

    def test_door_between_disjoint_rooms_needs_point(self):
        b = Building()
        b.add_location("A", 0, Rect(0, 0, 1, 1))
        b.add_location("B", 0, Rect(5, 0, 6, 1))
        with pytest.raises(MapModelError):
            b.add_door("A", "B")

    def test_neighbors_and_adjacency(self):
        b = make_two_rooms()
        assert b.neighbors("A") == ("B",)
        assert b.are_adjacent("A", "B")
        assert b.are_adjacent("B", "A")

    def test_location_at(self):
        b = make_two_rooms()
        assert b.location_at(0, Point(1, 1)) == "A"
        assert b.location_at(0, Point(7, 1)) == "B"
        assert b.location_at(0, Point(20, 20)) is None
        assert b.location_at(3, Point(1, 1)) is None

    def test_floor_bounds(self):
        b = make_two_rooms()
        bounds = b.floor_bounds(0)
        assert (bounds.x0, bounds.y0, bounds.x1, bounds.y1) == (0, 0, 10, 5)
        with pytest.raises(MapModelError):
            b.floor_bounds(9)

    def test_validate_accepts_good_building(self):
        make_two_rooms().validate()

    def test_validate_rejects_empty_building(self):
        with pytest.raises(MapModelError):
            Building().validate()

    def test_validate_rejects_offside_door(self):
        b = Building()
        b.add_location("A", 0, Rect(0, 0, 5, 5))
        b.add_location("B", 0, Rect(5, 0, 10, 5))
        b.add_door("A", "B", point=Point(20, 20))
        with pytest.raises(MapModelError):
            b.validate()

    def test_validate_rejects_zero_length_stairs(self):
        b = Building()
        b.add_location("A", 0, Rect(0, 0, 5, 5))
        b.add_location("B", 1, Rect(0, 0, 5, 5))
        b.add_door("A", "B")  # defaults to length 0 across floors
        with pytest.raises(MapModelError):
            b.validate()

    def test_connected_pairs_within_component_only(self):
        b = Building()
        b.add_location("A", 0, Rect(0, 0, 1, 1))
        b.add_location("B", 0, Rect(1, 0, 2, 1))
        b.add_location("C", 0, Rect(5, 0, 6, 1))  # isolated
        b.add_door("A", "B")
        pairs = b.connected_location_pairs()
        assert ("A", "B") in pairs and ("B", "A") in pairs
        assert not any("C" in pair for pair in pairs)

    def test_walls_between_counts_crossings(self):
        b = make_two_rooms()
        # A straight line across the shared wall crosses A's right edge and
        # B's left edge (shared walls are stored once per room).
        crossings = b.walls_between(0, Point(2.5, 2.5), Point(7.5, 2.5))
        assert crossings == 2

    def test_walls_between_same_room_is_zero(self):
        b = make_two_rooms()
        assert b.walls_between(0, Point(1, 1), Point(4, 4)) == 0

    def test_walls_between_ignores_wall_at_endpoint(self):
        b = make_two_rooms()
        # Reader mounted exactly on the shared wall: the wall it sits on
        # does not attenuate its own signal.
        assert b.walls_between(0, Point(5, 2.5), Point(4, 2.5)) == 0

    def test_walls_follow_added_locations(self):
        b = make_two_rooms()
        assert b.walls_between(0, Point(2.5, 2.5), Point(2.5, 8)) == 1
        b.add_location("C", 0, Rect(0, 5, 5, 10))
        assert b.walls_between(0, Point(2.5, 2.5), Point(2.5, 8)) == 2
        assert b.walls_between(1, Point(2.5, 2.5), Point(2.5, 8)) == 0
        b.add_location("D", 1, Rect(0, 0, 5, 5))
        assert b.walls_between(1, Point(2.5, 2.5), Point(2.5, 8)) == 1


# ----------------------------------------------------------------------
# walls_between's side test against the unpruned count
# ----------------------------------------------------------------------
def unpruned_walls(building, floor, a, b):
    """Every footprint edge of ``floor`` through ``_properly_crosses``."""
    path = Segment(a, b)
    return sum(_properly_crosses(path, edge)
               for loc in building.locations_on_floor(floor)
               for edge in loc.rect.edges())


def box_prefiltered_walls(building, floor, a, b, margin=1e-6):
    """The unpruned count behind a fixed-margin bounding-box prefilter:
    the shortcut ``walls_between`` must not take."""
    path = Segment(a, b)
    count = 0
    for loc in building.locations_on_floor(floor):
        for edge in loc.rect.edges():
            if (max(a.x, b.x) < min(edge.a.x, edge.b.x) - margin
                    or min(a.x, b.x) > max(edge.a.x, edge.b.x) + margin
                    or max(a.y, b.y) < min(edge.a.y, edge.b.y) - margin
                    or min(a.y, b.y) > max(edge.a.y, edge.b.y) + margin):
                continue
            count += _properly_crosses(path, edge)
    return count


#: How far a drawn point sits from a wall's line or from an anchor along
#: it: on it, inside and around the 1e-12 orientation tolerance, the
#: 1e-9 endpoint-touch distance and the side test's margin, and clear.
OFFSETS = (0.0, 1e-15, 1e-14, 1e-13, 5e-13, 1e-12, 2e-12, 2.5e-12, 4e-12,
           1e-11, 1e-10, 1e-9, 2e-9, 5e-9, 1e-8, 1e-7, 1e-5, 1e-3, 0.5, 3.0)


@st.composite
def tiled_floors(draw):
    """Floor 0 tiled by rooms between cut lines at random spacings, from
    1e-5 m up, some tiles left out: walls of many lengths at awkward
    coordinates, shared and not."""
    spacing = st.one_of(st.sampled_from((1e-5, 1e-4, 1e-3, 0.25, 1.0)),
                        st.floats(min_value=1e-6, max_value=12.0))

    def cuts():
        origin = draw(st.floats(min_value=-20, max_value=20))
        gaps = draw(st.lists(spacing, min_size=1, max_size=3))
        return [origin + sum(gaps[:i]) for i in range(len(gaps) + 1)]

    xs, ys = cuts(), cuts()
    building = Building("tiled")
    for i, (x0, x1) in enumerate(zip(xs, xs[1:])):
        for j, (y0, y1) in enumerate(zip(ys, ys[1:])):
            if (x0 < x1 and y0 < y1
                    and (not len(building) or draw(st.booleans()))):
                building.add_location(f"R{i}_{j}", 0, Rect(x0, y0, x1, y1))
    assume(len(building))
    return building


@st.composite
def nudged(draw, value):
    offset = draw(st.sampled_from(OFFSETS)) * draw(st.sampled_from((1.0, 1.7)))
    return value + draw(st.sampled_from((-1.0, 1.0))) * offset


@st.composite
def wall_probes(draw):
    """A building and a path drawn against one of its walls: both ends
    near the wall's line (at its endpoints, inside it or far beyond them
    along it), one end near it and the other anywhere around, a
    zero-length path, or a nearly parallel path that covers the wall or
    lies metres beyond it along its line."""
    building = draw(tiled_floors())
    edges = [edge for loc in building.locations for edge in loc.rect.edges()]
    edge = draw(st.sampled_from(edges))
    horizontal = edge.a.y == edge.b.y
    level = edge.a.y if horizontal else edge.a.x
    lo, hi = sorted((edge.a.x, edge.b.x) if horizontal
                    else (edge.a.y, edge.b.y))
    anchors = st.sampled_from((lo, hi, (lo + hi) / 2, lo - 7.5, hi + 10.0))

    def point(along, across):
        return Point(along, across) if horizontal else Point(across, along)

    kind = draw(st.sampled_from(("near", "ray", "zero", "cover",
                                 "parallel")))
    a = point(draw(nudged(draw(anchors))), draw(nudged(level)))
    if kind == "zero":
        b = a
    elif kind == "ray":
        angle = draw(st.floats(min_value=0.0, max_value=2 * math.pi))
        length = draw(st.sampled_from((1e-6, 1e-3, 0.3, 2.0, 9.0)))
        b = Point(a.x + length * math.cos(angle),
                  a.y + length * math.sin(angle))
    elif kind == "cover":
        overhang = st.sampled_from((0.0, 1e-12, 1e-6, 0.25, 3.0))
        a = point(lo - draw(overhang), draw(nudged(level)))
        b = point(hi + draw(overhang), draw(nudged(level)))
    elif kind == "parallel":
        start = draw(st.floats(min_value=-30, max_value=30))
        a = point(start, draw(nudged(level)))
        b = point(start + draw(st.sampled_from((-9.0, 4.0, 12.5))),
                  draw(nudged(level)))
    else:
        b = point(draw(nudged(draw(anchors))), draw(nudged(level)))
    return building, a, b


class TestWallSideTest:
    @settings(max_examples=1000, deadline=None)
    @given(wall_probes())
    def test_equals_the_unpruned_count(self, probe):
        building, a, b = probe
        expected = unpruned_walls(building, 0, a, b)
        assert building.walls_between(0, a, b) == expected
        assert building.walls_between(0, b, a) == unpruned_walls(
            building, 0, b, a)

    def test_a_tiny_path_counts_a_wall_beside_it(self):
        # 2e-8 m long, 1e-5 m past the wall's end: the orientation
        # tolerance counts the crossing, a bounding box would not.
        b = Building()
        b.add_location("A", 0, Rect(0, 0, 1, 1))
        a, z = Point(1.00001, -1e-8), Point(1.00001, 1e-8)
        assert unpruned_walls(b, 0, a, z) == 1
        assert b.walls_between(0, a, z) == 1
        assert box_prefiltered_walls(b, 0, a, z) == 0

    def test_a_nearly_parallel_path_counts_a_wall_metres_away(self):
        # The path spans x in [10, 20]; the wall ends at x = 0.
        b = Building()
        b.add_location("A", 0, Rect(-100, 0, 0, 5))
        a, z = Point(10, -2e-14), Point(20, 2e-14)
        assert unpruned_walls(b, 0, a, z) == 1
        assert b.walls_between(0, a, z) == 1
        assert box_prefiltered_walls(b, 0, a, z) == 0

    def test_zero_length_paths(self):
        b = make_two_rooms()
        for p in (Point(5, 2.5), Point(5 + 1e-13, 2.5), Point(0, 0),
                  Point(2.5, 5 - 3e-12), Point(7, 7)):
            assert b.walls_between(0, p, p) == unpruned_walls(b, 0, p, p)
