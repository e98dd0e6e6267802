"""Tests for constraint inference from building maps (Section 6.3)."""

import pytest

from repro.core.constraints import Latency, TravelingTime, Unreachable
from repro.errors import ConstraintError
from repro.inference.infer import (
    MotilityProfile,
    infer_constraints,
    infer_du_constraints,
    infer_lt_constraints,
    infer_tt_constraints,
)
from repro.mapmodel.distances import WalkingDistances


class TestMotilityProfile:
    def test_defaults_match_paper(self):
        profile = MotilityProfile()
        assert profile.max_speed == 2.0
        assert profile.min_stay == 5

    def test_validation(self):
        with pytest.raises(ConstraintError):
            MotilityProfile(max_speed=0.0)
        with pytest.raises(ConstraintError):
            MotilityProfile(min_stay=0)


class TestDUInference:
    def test_non_adjacent_pairs_covered(self, corridor4):
        du = infer_du_constraints(corridor4)
        pairs = {(c.loc_a, c.loc_b) for c in du}
        assert ("room1", "room2") in pairs
        assert ("room2", "room1") in pairs
        assert ("room1", "corridor") not in pairs
        assert ("corridor", "room1") not in pairs

    def test_no_self_constraints(self, corridor4):
        du = infer_du_constraints(corridor4)
        assert all(c.loc_a != c.loc_b for c in du)

    def test_count_formula(self, corridor4):
        # 5 locations; only the 4 room<->corridor pairs are adjacent.
        du = infer_du_constraints(corridor4)
        assert len(du) == 5 * 4 - 2 * 4


class TestTTInference:
    def test_only_connected_non_adjacent_pairs(self, corridor4):
        tt = infer_tt_constraints(corridor4, max_speed=2.0)
        pairs = {(c.loc_a, c.loc_b) for c in tt}
        assert all(a != b for a, b in pairs)
        assert ("room1", "corridor") not in pairs
        assert ("room1", "room2") in pairs

    def test_values_match_distances(self, corridor4):
        distances = WalkingDistances(corridor4)
        tt = infer_tt_constraints(corridor4, max_speed=2.0,
                                  distances=distances)
        lookup = {(c.loc_a, c.loc_b): c.steps for c in tt}
        assert lookup[("room1", "room4")] == distances.min_traveling_time(
            "room1", "room4", 2.0)

    def test_higher_speed_weakens_constraints(self, corridor4):
        slow = {(c.loc_a, c.loc_b): c.steps
                for c in infer_tt_constraints(corridor4, max_speed=1.0)}
        fast = {(c.loc_a, c.loc_b): c.steps
                for c in infer_tt_constraints(corridor4, max_speed=4.0)}
        for pair, steps in fast.items():
            assert steps <= slow[pair]

    def test_vacuous_constraints_skipped(self, corridor4):
        # At absurd speed every travel takes <= 1 step: no TT constraints.
        tt = infer_tt_constraints(corridor4, max_speed=1000.0)
        assert tt == []


class TestLTInference:
    def test_transit_locations_excluded(self, one_floor):
        lt = infer_lt_constraints(one_floor, min_stay=5)
        constrained = {c.location for c in lt}
        assert "F0_corridor" not in constrained
        assert "F0_stairs" not in constrained
        assert "F0_R1" in constrained

    def test_vacuous_bound_produces_nothing(self, one_floor):
        assert infer_lt_constraints(one_floor, min_stay=1) == []

    def test_bound_propagated(self, one_floor):
        lt = infer_lt_constraints(one_floor, min_stay=7)
        assert all(c.duration == 7 for c in lt)


class TestFullInference:
    def test_kind_selection(self, corridor4):
        du_only = infer_constraints(corridor4, kinds=("DU",))
        assert all(isinstance(c, Unreachable) for c in du_only)
        du_lt = infer_constraints(corridor4, kinds=("DU", "LT"))
        kinds = {type(c) for c in du_lt}
        assert kinds == {Unreachable, Latency}
        full = infer_constraints(corridor4)
        assert {type(c) for c in full} == {Unreachable, Latency, TravelingTime}

    def test_unknown_kind_rejected(self, corridor4):
        with pytest.raises(ConstraintError):
            infer_constraints(corridor4, kinds=("DU", "XX"))

    def test_reuses_precomputed_distances(self, corridor4):
        distances = WalkingDistances(corridor4)
        full = infer_constraints(corridor4, distances=distances)
        assert len(full) > 0

    def test_constraints_respect_profile(self, corridor4):
        profile = MotilityProfile(max_speed=1.0, min_stay=9)
        cs = infer_constraints(corridor4, profile)
        assert cs.latency_of("room1") == 9
        assert cs.traveling_time("room1", "room4") == 15  # 15 m at 1 m/s


class TestPinnedConstraintSets:
    """SYN1's and SYN2's inferred DU+LT+TT sets, pinned by a digest of
    every constraint in order: the walking distances and connected
    pairs under TT are computed without networkx since it was made
    optional, and these digests were taken with it."""

    DIGESTS = {
        "syn1": (1828, "1f69331266fe564434795c5e1ca2ed32"
                       "d5801fbe3fa24d2a3d74644e4a3786aa"),
        "syn2": (7748, "0c63c60d5c6a2a006ccb79082b23e517"
                       "d3df8c4a6c742ef87792d3d531819fbb"),
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_digest(self, name):
        import hashlib

        from repro.mapmodel.floorplans import syn1_building, syn2_building

        building = {"syn1": syn1_building, "syn2": syn2_building}[name]()
        constraints = infer_constraints(building)
        text = "\n".join(repr(constraint) for constraint in constraints)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert (len(constraints), digest) == self.DIGESTS[name]
