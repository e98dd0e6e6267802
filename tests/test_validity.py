"""Tests for Definition 2 trajectory validity."""

from repro.core.constraints import (
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.core.validity import is_valid_trajectory, stays_of, violations


class TestStaysOf:
    def test_single_location(self):
        assert list(stays_of(["A", "A", "A"])) == [(0, "A", 3)]

    def test_alternating(self):
        assert list(stays_of(["A", "B", "A"])) == [
            (0, "A", 1), (1, "B", 1), (2, "A", 1)]

    def test_mixed_runs(self):
        assert list(stays_of(["A", "A", "B", "B", "B", "A"])) == [
            (0, "A", 2), (2, "B", 3), (5, "A", 1)]

    def test_empty(self):
        assert list(stays_of([])) == []


class TestDirectUnreachability:
    def test_violating_step_detected(self):
        cs = ConstraintSet([Unreachable("A", "B")])
        assert not is_valid_trajectory(["A", "B"], cs)
        assert is_valid_trajectory(["B", "A"], cs)

    def test_violation_message(self):
        cs = ConstraintSet([Unreachable("A", "B")])
        (message,) = violations(["A", "B"], cs)
        assert "unreachable(A, B)" in message

    def test_self_du_forbids_staying(self):
        cs = ConstraintSet([Unreachable("A", "A")])
        assert not is_valid_trajectory(["A", "A"], cs)
        assert is_valid_trajectory(["A", "B", "A"], cs)


class TestLatency:
    def test_short_interior_stay_invalid(self):
        cs = ConstraintSet([Latency("B", 3)])
        assert not is_valid_trajectory(["A", "B", "B", "A"], cs)
        assert is_valid_trajectory(["A", "B", "B", "B", "A"], cs)

    def test_initial_stay_counts_from_zero(self):
        cs = ConstraintSet([Latency("A", 3)])
        assert not is_valid_trajectory(["A", "A", "B", "B"], cs)
        assert is_valid_trajectory(["A", "A", "A", "B"], cs)

    def test_truncated_final_stay_lenient_vs_strict(self):
        cs = ConstraintSet([Latency("B", 4)])
        trajectory = ["A", "B", "B"]       # stay of 2 cut off by the window
        assert is_valid_trajectory(trajectory, cs)
        assert not is_valid_trajectory(trajectory, cs, strict_truncation=True)

    def test_exactly_meeting_the_bound(self):
        cs = ConstraintSet([Latency("B", 2)])
        assert is_valid_trajectory(["A", "B", "B", "A"], cs)

    def test_unrelated_locations_unaffected(self):
        cs = ConstraintSet([Latency("Z", 5)])
        assert is_valid_trajectory(["A", "B", "A"], cs)


class TestTravelingTime:
    def test_direct_move_violates(self):
        cs = ConstraintSet([TravelingTime("A", "B", 3)])
        assert not is_valid_trajectory(["A", "B"], cs)

    def test_too_fast_through_intermediate(self):
        cs = ConstraintSet([TravelingTime("A", "C", 3)])
        assert not is_valid_trajectory(["A", "B", "C"], cs)    # 2 < 3
        assert is_valid_trajectory(["A", "B", "B", "C"], cs)   # 3 >= 3

    def test_last_departure_binds(self):
        cs = ConstraintSet([TravelingTime("A", "C", 3)])
        # A at 0..2 (leaves at 2), C at 4: 4 - 2 = 2 < 3 -> invalid.
        assert not is_valid_trajectory(["A", "A", "A", "B", "C"], cs)
        # A leaves at 0, C at 3: 3 >= 3 -> valid.
        assert is_valid_trajectory(["A", "B", "B", "C"], cs)

    def test_revisits_checked_per_arrival(self):
        cs = ConstraintSet([TravelingTime("A", "C", 2)])
        # First arrival at C OK (gap 2); bounce out and back stays OK.
        assert is_valid_trajectory(["A", "B", "C", "B", "C"], cs)

    def test_direction_matters(self):
        cs = ConstraintSet([TravelingTime("A", "C", 3)])
        assert is_valid_trajectory(["C", "B", "A"], cs)

    def test_violation_message(self):
        cs = ConstraintSet([TravelingTime("A", "C", 3)])
        messages = violations(["A", "B", "C"], cs)
        assert any("travelingTime(A, C, 3)" in m for m in messages)


class TestCombined:
    def test_all_constraint_kinds_together(self, simple_constraints):
        # simple_constraints: DU A<->C, TT A->D >=3, LT B >= 2.
        assert is_valid_trajectory(["A", "B", "B", "D"], simple_constraints)
        assert not is_valid_trajectory(["A", "C"], simple_constraints)
        assert not is_valid_trajectory(["A", "B", "D", "D"],
                                       simple_constraints)  # TT and LT(B)

    def test_violations_lists_every_problem(self):
        cs = ConstraintSet([Unreachable("A", "B"), Latency("B", 3),
                            TravelingTime("A", "C", 4)])
        found = violations(["A", "B", "C"], cs)
        assert len(found) == 3

    def test_empty_constraints_accept_everything(self):
        cs = ConstraintSet()
        assert is_valid_trajectory(["A", "B", "C", "A"], cs)
        assert violations(["A", "B"], cs) == []

    def test_single_step_trajectory(self):
        cs = ConstraintSet([Latency("A", 3)])
        assert is_valid_trajectory(["A"], cs)                       # lenient
        assert not is_valid_trajectory(["A"], cs, strict_truncation=True)
