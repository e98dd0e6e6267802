"""Tests for integrity-constraint classes and the indexed ConstraintSet."""

import pytest

from repro.core.constraints import (
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.errors import ConstraintError


class TestConstraintValidation:
    def test_self_tt_rejected(self):
        with pytest.raises(ConstraintError):
            TravelingTime("A", "A", 3)

    def test_vacuous_tt_rejected(self):
        with pytest.raises(ConstraintError):
            TravelingTime("A", "B", 1)
        with pytest.raises(ConstraintError):
            TravelingTime("A", "B", 0)

    def test_vacuous_latency_rejected(self):
        with pytest.raises(ConstraintError):
            Latency("A", 1)
        with pytest.raises(ConstraintError):
            Latency("A", 0)

    def test_self_du_allowed(self):
        # unreachable(l, l) legitimately forbids two consecutive steps at l.
        c = Unreachable("A", "A")
        assert c.loc_a == c.loc_b == "A"

    def test_str_forms(self):
        assert str(Unreachable("A", "B")) == "unreachable(A, B)"
        assert str(TravelingTime("A", "B", 3)) == "travelingTime(A, B, 3)"
        assert str(Latency("A", 2)) == "latency(A, 2)"


class TestConstraintSet:
    def test_rejects_non_constraints(self):
        with pytest.raises(ConstraintError):
            ConstraintSet(["not a constraint"])

    def test_container_protocol(self):
        items = [Unreachable("A", "B"), Latency("C", 2)]
        cs = ConstraintSet(items)
        assert len(cs) == 2
        assert list(cs) == items

    def test_forbids_step_is_directed(self):
        cs = ConstraintSet([Unreachable("A", "B")])
        assert cs.forbids_step("A", "B")
        assert not cs.forbids_step("B", "A")

    def test_latency_lookup(self):
        cs = ConstraintSet([Latency("A", 3)])
        assert cs.latency_of("A") == 3
        assert cs.latency_of("B") is None

    def test_duplicate_latency_keeps_max(self):
        cs = ConstraintSet([Latency("A", 3), Latency("A", 5), Latency("A", 2)])
        assert cs.latency_of("A") == 5

    def test_traveling_time_lookup(self):
        cs = ConstraintSet([TravelingTime("A", "B", 4)])
        assert cs.traveling_time("A", "B") == 4
        assert cs.traveling_time("B", "A") is None

    def test_duplicate_tt_keeps_max(self):
        cs = ConstraintSet([TravelingTime("A", "B", 4),
                            TravelingTime("A", "B", 7)])
        assert cs.traveling_time("A", "B") == 7

    def test_traveling_times_into(self):
        cs = ConstraintSet([TravelingTime("A", "C", 4),
                            TravelingTime("B", "C", 2),
                            TravelingTime("A", "B", 3)])
        into_c = dict(cs.traveling_times_into("C"))
        assert into_c == {"A": 4, "B": 2}
        assert cs.traveling_times_into("Z") == ()

    def test_max_traveling_time(self):
        cs = ConstraintSet([TravelingTime("A", "B", 3),
                            TravelingTime("A", "C", 7),
                            TravelingTime("B", "C", 2)])
        assert cs.max_traveling_time("A") == 7
        assert cs.max_traveling_time("B") == 2
        assert cs.max_traveling_time("C") == 0

    def test_tt_sources(self):
        cs = ConstraintSet([TravelingTime("A", "B", 3)])
        assert cs.tt_sources == frozenset({"A"})

    def test_union(self):
        a = ConstraintSet([Unreachable("A", "B")])
        b = ConstraintSet([Latency("C", 2)])
        merged = a | b
        assert len(merged) == 2
        assert merged.forbids_step("A", "B")
        assert merged.latency_of("C") == 2

    def test_union_deduplicates_shared_members(self):
        shared = Unreachable("A", "B")
        a = ConstraintSet([shared, Latency("C", 2)])
        b = ConstraintSet([shared, TravelingTime("A", "C", 3)])
        merged = a | b
        assert len(merged) == 3
        assert len(a | a) == len(a)

    def test_union_preserves_first_seen_order(self):
        a = ConstraintSet([Unreachable("A", "B"), Latency("C", 2)])
        b = ConstraintSet([Latency("C", 2), Unreachable("B", "A")])
        assert list(a | b) == [Unreachable("A", "B"), Latency("C", 2),
                               Unreachable("B", "A")]

    def test_contains(self):
        cs = ConstraintSet([Unreachable("A", "B"), Latency("C", 2)])
        assert Unreachable("A", "B") in cs
        assert Latency("C", 2) in cs
        assert Unreachable("B", "A") not in cs
        assert "not a constraint" not in cs

    def test_equality_ignores_statement_order(self):
        a = ConstraintSet([Unreachable("A", "B"), Latency("C", 2)])
        b = ConstraintSet([Latency("C", 2), Unreachable("A", "B")])
        assert a == b
        assert hash(a) == hash(b)
        assert a != ConstraintSet([Unreachable("A", "B")])

    def test_a_set_equals_itself_without_a_walk(self):
        class Unwalkable(frozenset):
            def __eq__(self, other):
                raise AssertionError("the constraints were compared")

            __hash__ = frozenset.__hash__

        cs = ConstraintSet([Unreachable("A", "B"), Latency("C", 2)])
        cs._item_set = Unwalkable(cs._item_set)
        assert cs == cs
        assert not cs != cs

    def test_equality_against_foreign_types(self):
        cs = ConstraintSet([Unreachable("A", "B")])
        assert cs != {Unreachable("A", "B")}
        assert cs != "unreachable(A, B)"

    def test_only_filters_by_kind(self, simple_constraints):
        du_only = simple_constraints.only(Unreachable)
        assert len(du_only) == 2
        assert du_only.latency_of("B") is None
        assert du_only.traveling_time("A", "D") is None
        du_lt = simple_constraints.only(Unreachable, Latency)
        assert du_lt.latency_of("B") == 2
        assert du_lt.traveling_time("A", "D") is None

    def test_bounds_copies_are_detached(self):
        cs = ConstraintSet([Latency("A", 2), TravelingTime("A", "B", 3)])
        lt = cs.latency_bounds
        lt["A"] = 99
        assert cs.latency_of("A") == 2
        tt = cs.traveling_time_bounds
        tt[("A", "B")] = 99
        assert cs.traveling_time("A", "B") == 3

    def test_empty_set(self):
        cs = ConstraintSet()
        assert len(cs) == 0
        assert not cs.forbids_step("A", "B")
        assert cs.latency_of("A") is None
        assert cs.max_traveling_time("A") == 0
