"""Tests for location-node states and the successor relation (Definition 3)."""

from repro.core.constraints import (
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.core.nodes import initial_stay, source_states, successor_state


def succ(tau, state, dest, constraints):
    return successor_state(tau, state, dest, constraints)


class TestInitialStay:
    def test_unconstrained_location_is_bottom(self):
        assert initial_stay("A", ConstraintSet()) is None

    def test_constrained_location_starts_at_one(self):
        cs = ConstraintSet([Latency("A", 3)])
        assert initial_stay("A", cs) == 1


class TestSourceStates:
    def test_sources_have_empty_departures(self):
        cs = ConstraintSet([Latency("A", 2)])
        states = source_states(["A", "B"], cs)
        assert states["A"] == ("A", 1, ())
        assert states["B"] == ("B", None, ())


class TestDirectUnreachability:
    def test_du_blocks_move(self):
        cs = ConstraintSet([Unreachable("A", "B")])
        assert succ(0, ("A", None, ()), "B", cs) is None
        assert succ(0, ("B", None, ()), "A", cs) is not None

    def test_self_du_blocks_staying(self):
        cs = ConstraintSet([Unreachable("A", "A")])
        assert succ(0, ("A", None, ()), "A", cs) is None


class TestLatency:
    def test_stay_counter_increments(self):
        cs = ConstraintSet([Latency("A", 3)])
        state = ("A", 1, ())
        state = succ(0, state, "A", cs)
        assert state == ("A", 2, ())
        state = succ(1, state, "A", cs)
        # Stay reached the bound: counter collapses to bottom.
        assert state == ("A", None, ())

    def test_cannot_leave_while_binding(self):
        cs = ConstraintSet([Latency("A", 3)])
        assert succ(0, ("A", 1, ()), "B", cs) is None
        assert succ(0, ("A", 2, ()), "B", cs) is None

    def test_can_leave_once_satisfied(self):
        cs = ConstraintSet([Latency("A", 3)])
        assert succ(0, ("A", None, ()), "B", cs) is not None

    def test_arrival_at_constrained_location_starts_counter(self):
        cs = ConstraintSet([Latency("B", 2)])
        state = succ(0, ("A", None, ()), "B", cs)
        assert state == ("B", 1, ())

    def test_arrival_at_unconstrained_location_is_bottom(self):
        cs = ConstraintSet([Latency("A", 2)])
        state = succ(0, ("B", None, ()), "C", cs)
        assert state == ("C", None, ())


class TestTravelingTime:
    def test_direct_move_checked_against_tt(self):
        # Even without a TL entry, moving A -> B in one step violates
        # travelingTime(A, B, 3) (the implicit departure of the move).
        cs = ConstraintSet([TravelingTime("A", "B", 3)])
        assert succ(5, ("A", None, ()), "B", cs) is None

    def test_departure_recorded_for_tt_sources(self):
        cs = ConstraintSet([TravelingTime("A", "C", 4)])
        state = succ(5, ("A", None, ()), "B", cs)
        assert state == ("B", None, ((5, "A"),))

    def test_departure_not_recorded_without_tt(self):
        cs = ConstraintSet([TravelingTime("X", "Y", 4)])
        state = succ(5, ("A", None, ()), "B", cs)
        assert state == ("B", None, ())

    def test_arrival_blocked_while_window_open(self):
        cs = ConstraintSet([TravelingTime("A", "C", 4)])
        # Left A at time 5; arriving at C at time 7 violates 7 - 5 < 4.
        assert succ(6, ("B", None, ((5, "A"),)), "C", cs) is None

    def test_arrival_allowed_after_window(self):
        cs = ConstraintSet([TravelingTime("A", "C", 2)])
        state = succ(6, ("B", None, ((5, "A"),)), "C", cs)
        assert state is not None
        assert state[0] == "C"

    def test_entries_expire_at_horizon(self):
        cs = ConstraintSet([TravelingTime("A", "C", 3)])
        # At arrival time tau+1 = 8, 8 - 5 = 3 >= maxTT(A) = 3: expired.
        state = succ(7, ("B", None, ((5, "A"),)), "D", cs)
        assert state == ("D", None, ())

    def test_entries_kept_while_binding(self):
        cs = ConstraintSet([TravelingTime("A", "C", 5)])
        state = succ(6, ("B", None, ((5, "A"),)), "D", cs)
        assert state == ("D", None, ((5, "A"),))

    def test_arriving_at_entry_location_clears_it(self):
        cs = ConstraintSet([TravelingTime("A", "C", 3),
                            TravelingTime("B", "D", 9)])
        # Coming back to A: the A entry is dropped (a fresh departure will
        # be recorded when the object leaves again).
        state = succ(6, ("B", None, ((5, "A"),)), "A", cs)
        assert state == ("A", None, ((6, "B"),))

    def test_latest_departure_per_location_wins(self):
        cs = ConstraintSet([TravelingTime("A", "C", 9)])
        # The stale (2, A) entry is superseded by the new departure (6, A).
        state = succ(6, ("A", None, ((2, "A"),)), "B", cs)
        assert state == ("B", None, ((6, "A"),))

    def test_staying_only_ages_entries(self):
        cs = ConstraintSet([TravelingTime("A", "C", 3)])
        state = succ(6, ("B", None, ((5, "A"),)), "B", cs)
        assert state == ("B", None, ((5, "A"),))
        state = succ(7, state, "B", cs)
        assert state == ("B", None, ())   # expired at time 8

    def test_staying_is_never_blocked_by_tt(self):
        cs = ConstraintSet([TravelingTime("A", "B", 9)])
        # Already at B: staying at B is not an arrival.
        assert succ(6, ("B", None, ((5, "A"),)), "B", cs) is not None


class TestDeterminism:
    def test_at_most_one_successor_per_destination(self):
        cs = ConstraintSet([Latency("A", 2), TravelingTime("A", "C", 3)])
        state = ("A", None, ())
        results = {succ(3, state, dest, cs) for dest in ("A", "B", "C")}
        # Each destination yields one specific state (or None).
        assert len(results) == 3

    def test_departures_are_sorted_canonical(self):
        cs = ConstraintSet([TravelingTime("A", "X", 9),
                            TravelingTime("B", "X", 9)])
        state = succ(6, ("B", None, ((5, "A"),)), "C", cs)
        assert state[2] == ((5, "A"), (6, "B"))


class TestStateAccessors:
    """The named accessors are the supported way to read a NodeState.

    Code outside repro.core.nodes must not destructure the bare tuple —
    this pin makes a NodeState shape change fail here, in one obvious
    place, instead of silently misassigning fields at unpacking sites.
    """

    def test_accessors_cover_the_whole_state(self):
        from repro.core.nodes import (
            state_departures,
            state_location,
            state_stay,
        )

        cs = ConstraintSet([Latency("A", 3), TravelingTime("A", "C", 3)])
        state = succ(4, ("A", None, ()), "B", cs)
        assert state is not None
        assert state_location(state) == "B"
        assert state_stay(state) is None
        assert state_departures(state) == ((4, "A"),)
        # The three accessors reconstruct the state exactly — if a field
        # is ever added to NodeState, this equality breaks loudly.
        assert (state_location(state), state_stay(state),
                state_departures(state)) == state
