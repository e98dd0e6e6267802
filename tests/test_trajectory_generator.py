"""Tests for the ground-truth trajectory generator (Section 6.4)."""

import pytest

np = pytest.importorskip("numpy", exc_type=ImportError)

from repro.errors import MapModelError
from repro.geometry import Rect
from repro.mapmodel.building import Building
from repro.simulation.trajectories import (
    MovementParameters,
    TrajectoryGenerator,
)


@pytest.fixture
def generator(one_floor, rng):
    return TrajectoryGenerator(one_floor, rng=rng)


class TestMovementParameters:
    def test_defaults_match_paper(self):
        p = MovementParameters()
        assert p.velocity_range == (1.0, 2.0)
        assert p.room_rest_range == (30, 60)

    def test_validation(self):
        with pytest.raises(MapModelError):
            MovementParameters(velocity_range=(0.0, 1.0))
        with pytest.raises(MapModelError):
            MovementParameters(velocity_range=(2.0, 1.0))
        with pytest.raises(MapModelError):
            MovementParameters(room_rest_range=(5, 2))


class TestGeneration:
    def test_exact_duration(self, generator):
        for duration in (1, 7, 50, 200):
            trajectory = generator.generate(duration)
            assert trajectory.duration == duration

    def test_bad_duration_rejected(self, generator):
        with pytest.raises(MapModelError):
            generator.generate(0)

    def test_positions_inside_labelled_location(self, generator, one_floor):
        trajectory = generator.generate(300)
        for tau in range(trajectory.duration):
            location = one_floor.location(trajectory.locations[tau])
            assert location.floor == trajectory.floors[tau]
            assert location.rect.contains(trajectory.points[tau], tol=1e-6)

    def test_speed_never_exceeds_velocity_bound(self, generator):
        trajectory = generator.generate(300)
        vmax = generator.parameters.velocity_range[1]
        for tau in range(trajectory.duration - 1):
            if trajectory.floors[tau] != trajectory.floors[tau + 1]:
                continue  # staircase flights switch coordinate frames
            step = trajectory.points[tau].distance_to(
                trajectory.points[tau + 1])
            assert step <= vmax + 1e-6

    def test_moves_only_through_doors(self, generator, one_floor):
        trajectory = generator.generate(500)
        for tau in range(trajectory.duration - 1):
            here = trajectory.locations[tau]
            there = trajectory.locations[tau + 1]
            if here != there:
                assert one_floor.are_adjacent(here, there), (here, there)

    def test_room_stays_respect_rest_minimum(self, generator, one_floor):
        trajectory = generator.generate(600)
        stays = trajectory.stay_sequence()
        # Interior room stays include >= 30 steps of rest plus walking.
        for (location, length) in stays[1:-1]:
            if not one_floor.location(location).is_transit:
                assert length >= 30

    def test_deterministic_given_seed(self, one_floor):
        a = TrajectoryGenerator(one_floor,
                                rng=np.random.default_rng(9)).generate(100)
        b = TrajectoryGenerator(one_floor,
                                rng=np.random.default_rng(9)).generate(100)
        assert a.locations == b.locations
        assert a.points == b.points

    def test_generate_many(self, generator):
        batch = generator.generate_many(50, 3)
        assert len(batch) == 3
        assert all(t.duration == 50 for t in batch)

    def test_sealed_room_keeps_object_inside(self, rng):
        building = Building("sealed")
        building.add_location("only", 0, Rect(0, 0, 5, 5))
        generator = TrajectoryGenerator(building, rng=rng)
        trajectory = generator.generate(80)
        assert set(trajectory.locations) == {"only"}


class TestMultiFloor:
    def test_floor_changes_happen_through_stairs(self, two_floors, rng):
        generator = TrajectoryGenerator(two_floors, rng=rng)
        # Long trajectory so stair crossings actually occur.
        trajectory = generator.generate(2000)
        for tau in range(trajectory.duration - 1):
            if trajectory.floors[tau] != trajectory.floors[tau + 1]:
                assert "stairs" in trajectory.locations[tau]
                assert "stairs" in trajectory.locations[tau + 1]

    def test_helpers(self, generator):
        trajectory = generator.generate(200)
        visited = trajectory.visited_locations()
        assert len(visited) >= 1
        stays = trajectory.stay_sequence()
        assert sum(length for _, length in stays) == trajectory.duration


class TestGroundTruthValidity:
    """The generated ground truth must satisfy the inferred constraints —
    the evaluation's accuracy metric depends on it (DESIGN.md §3)."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_truth_valid_under_inferred_constraints(self, two_floors, seed):
        from repro.core.validity import violations
        from repro.inference import MotilityProfile, infer_constraints

        generator = TrajectoryGenerator(two_floors,
                                        rng=np.random.default_rng(seed))
        trajectory = generator.generate(600)
        constraints = infer_constraints(two_floors, MotilityProfile())
        assert violations(trajectory.locations, constraints) == []
