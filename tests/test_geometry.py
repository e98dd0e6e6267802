"""Unit tests for the planar geometry primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.geometry import Point, Rect, Segment

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
                   allow_infinity=False)


class TestPoint:
    def test_distance_is_euclidean(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_distance_to_self_is_zero(self):
        p = Point(2.5, -1.0)
        assert p.distance_to(p) == 0.0

    def test_translated(self):
        assert Point(1, 2).translated(3, -1) == Point(4, 1)

    def test_towards_moves_partway(self):
        moved = Point(0, 0).towards(Point(10, 0), 4)
        assert moved == Point(4, 0)

    def test_towards_can_overshoot(self):
        moved = Point(0, 0).towards(Point(1, 0), 5)
        assert moved.x == pytest.approx(5.0)

    def test_towards_degenerate_direction(self):
        p = Point(3, 3)
        assert p.towards(p, 10) == p

    def test_as_tuple(self):
        assert Point(1.5, 2.5).as_tuple() == (1.5, 2.5)

    @given(finite, finite, finite, finite)
    def test_distance_symmetry(self, x0, y0, x1, y1):
        a, b = Point(x0, y0), Point(x1, y1)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    @given(finite, finite, finite, finite,
           st.floats(min_value=0, max_value=100))
    def test_towards_lands_at_requested_distance(self, x0, y0, x1, y1, d):
        a, b = Point(x0, y0), Point(x1, y1)
        if a.distance_to(b) < 1e-6:
            return
        moved = a.towards(b, d)
        assert a.distance_to(moved) == pytest.approx(d, abs=1e-6)


class TestRect:
    def test_invalid_corners_rejected(self):
        with pytest.raises(ValueError):
            Rect(1, 0, 0, 1)
        with pytest.raises(ValueError):
            Rect(0, 1, 1, 0)

    def test_dimensions(self):
        r = Rect(1, 2, 4, 8)
        assert r.width == 3
        assert r.height == 6
        assert r.area == 18
        assert r.center == Point(2.5, 5.0)

    def test_contains_boundary_inclusive(self):
        r = Rect(0, 0, 2, 2)
        assert r.contains(Point(0, 0))
        assert r.contains(Point(2, 2))
        assert r.contains(Point(1, 1))
        assert not r.contains(Point(2.1, 1))

    def test_contains_strict_excludes_boundary(self):
        r = Rect(0, 0, 2, 2)
        assert not r.contains_strict(Point(0, 1))
        assert r.contains_strict(Point(1, 1))

    def test_clamp_projects_outside_points(self):
        r = Rect(0, 0, 2, 2)
        assert r.clamp(Point(5, 1)) == Point(2, 1)
        assert r.clamp(Point(-1, -1)) == Point(0, 0)
        assert r.clamp(Point(1, 1)) == Point(1, 1)

    def test_intersects(self):
        a = Rect(0, 0, 2, 2)
        assert a.intersects(Rect(1, 1, 3, 3))
        assert a.intersects(Rect(2, 0, 4, 2))   # touching edge counts
        assert not a.intersects(Rect(2.5, 0, 4, 2))

    def test_edges_form_closed_loop(self):
        edges = list(Rect(0, 0, 1, 2).edges())
        assert len(edges) == 4
        perimeter = sum(edge.length for edge in edges)
        assert perimeter == pytest.approx(6.0)


class TestSegment:
    def test_length_and_midpoint(self):
        s = Segment(Point(0, 0), Point(4, 0))
        assert s.length == 4
        assert s.midpoint == Point(2, 0)

    def test_crossing_segments_intersect(self):
        a = Segment(Point(0, 0), Point(2, 2))
        b = Segment(Point(0, 2), Point(2, 0))
        assert a.intersects(b)
        assert b.intersects(a)

    def test_parallel_segments_do_not_intersect(self):
        a = Segment(Point(0, 0), Point(2, 0))
        b = Segment(Point(0, 1), Point(2, 1))
        assert not a.intersects(b)

    def test_collinear_overlapping_segments_intersect(self):
        a = Segment(Point(0, 0), Point(2, 0))
        b = Segment(Point(1, 0), Point(3, 0))
        assert a.intersects(b)

    def test_collinear_disjoint_segments_do_not_intersect(self):
        a = Segment(Point(0, 0), Point(1, 0))
        b = Segment(Point(2, 0), Point(3, 0))
        assert not a.intersects(b)

    def test_touching_at_endpoint_intersects(self):
        a = Segment(Point(0, 0), Point(1, 1))
        b = Segment(Point(1, 1), Point(2, 0))
        assert a.intersects(b)

    def test_distance_to_point_on_segment(self):
        s = Segment(Point(0, 0), Point(4, 0))
        assert s.distance_to_point(Point(2, 0)) == 0.0

    def test_distance_to_point_perpendicular(self):
        s = Segment(Point(0, 0), Point(4, 0))
        assert s.distance_to_point(Point(2, 3)) == pytest.approx(3.0)

    def test_distance_to_point_beyond_end(self):
        s = Segment(Point(0, 0), Point(4, 0))
        assert s.distance_to_point(Point(7, 4)) == pytest.approx(5.0)

    def test_degenerate_segment_distance(self):
        s = Segment(Point(1, 1), Point(1, 1))
        assert s.distance_to_point(Point(4, 5)) == pytest.approx(5.0)
