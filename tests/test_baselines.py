"""Tests for the comparison baselines (smoothing, particles, beam)."""

import math

import pytest

np = pytest.importorskip("numpy", exc_type=ImportError)

from repro.baselines.beam import BeamCleaner
from repro.baselines.particles import ParticleFilter
from repro.baselines.smoothing import SmoothingFilter
from repro.core.algorithm import build_ct_graph
from repro.core.constraints import ConstraintSet, Latency, Unreachable
from repro.core.lsequence import LSequence, ReadingSequence
from repro.errors import InconsistentReadingsError, ReadingSequenceError


class TestSmoothingFilter:
    def test_window_validation(self):
        with pytest.raises(ReadingSequenceError):
            SmoothingFilter(0)

    def test_interior_gap_filled(self):
        readings = ReadingSequence.from_reader_sets(
            [{"r"}, set(), set(), {"r"}])
        smoothed = SmoothingFilter(window=3).smooth(readings)
        assert [r.readers for r in smoothed] == [
            frozenset({"r"})] * 4

    def test_gap_larger_than_window_kept(self):
        readings = ReadingSequence.from_reader_sets(
            [{"r"}, set(), set(), set(), {"r"}])
        smoothed = SmoothingFilter(window=3).smooth(readings)
        assert smoothed[2].readers == frozenset()

    def test_leading_and_trailing_silence_untouched(self):
        readings = ReadingSequence.from_reader_sets(
            [set(), {"r"}, {"r"}, set()])
        smoothed = SmoothingFilter(window=3).smooth(readings)
        assert smoothed[0].readers == frozenset()
        assert smoothed[3].readers == frozenset()

    def test_readers_smoothed_independently(self):
        readings = ReadingSequence.from_reader_sets(
            [{"a"}, {"b"}, {"a"}])
        smoothed = SmoothingFilter(window=2).smooth(readings)
        assert smoothed[1].readers == frozenset({"a", "b"})
        assert smoothed[0].readers == frozenset({"a"})

    def test_no_detections_no_changes(self):
        readings = ReadingSequence.from_reader_sets([set(), set()])
        smoothed = SmoothingFilter().smooth(readings)
        assert all(r.readers == frozenset() for r in smoothed)


class TestParticleFilter:
    @pytest.fixture
    def case(self):
        ls = LSequence([{"A": 0.5, "B": 0.5},
                        {"B": 0.6, "C": 0.4},
                        {"B": 0.5, "C": 0.5}])
        cs = ConstraintSet([Unreachable("A", "C"), Latency("B", 2)])
        return ls, cs

    def test_particle_count_validation(self, case):
        _, cs = case
        with pytest.raises(ReadingSequenceError):
            ParticleFilter(cs, num_particles=0)

    def test_estimates_are_distributions(self, case, rng):
        ls, cs = case
        estimates = ParticleFilter(cs, 300, rng).run(ls)
        assert len(estimates) == ls.duration
        for estimate in estimates:
            assert math.fsum(estimate.values()) == pytest.approx(1.0)

    def test_estimates_respect_constraints_support(self, case, rng):
        ls, cs = case
        # Exact filtered support at step 1 excludes nothing here, but at
        # step 1 'C' can only be reached from 'B'; run the exact cleaner
        # and compare supports.
        graph = build_ct_graph(ls, cs)
        estimates = ParticleFilter(cs, 500, rng).run(ls)
        for tau, estimate in enumerate(estimates):
            # Every location the particles report must be in the exact
            # smoothed support or at least the prior support.
            assert set(estimate) <= set(ls.candidates(tau))

    def test_approximates_exact_filtering(self, case):
        ls, cs = case
        from repro.streaming import StreamingCleaner
        cleaner = StreamingCleaner(cs, window=None)
        exact_estimates = []
        for tau in range(ls.duration):
            cleaner.extend(ls.candidates(tau))
            exact_estimates.append(cleaner.filtered_distribution())
        particles = ParticleFilter(
            cs, 4000, np.random.default_rng(0)).run(ls)
        final_exact = exact_estimates[-1]
        final_particles = particles[-1]
        for location, probability in final_exact.items():
            assert final_particles.get(location, 0.0) == pytest.approx(
                probability, abs=0.05)

    def test_total_death_raises(self, rng):
        ls = LSequence([{"A": 1.0}, {"B": 1.0}])
        cs = ConstraintSet([Unreachable("A", "B")])
        with pytest.raises(InconsistentReadingsError):
            ParticleFilter(cs, 50, rng).run(ls)


class TestBeamCleaner:
    @pytest.fixture
    def case(self):
        ls = LSequence([{"A": 0.5, "B": 0.5},
                        {"B": 0.6, "C": 0.4},
                        {"B": 0.5, "C": 0.5},
                        {"A": 0.3, "B": 0.7}])
        cs = ConstraintSet([Unreachable("A", "C"), Latency("B", 2)])
        return ls, cs

    def test_width_validation(self, case):
        _, cs = case
        with pytest.raises(ReadingSequenceError):
            BeamCleaner(cs, beam_width=0)

    def test_wide_beam_equals_exact(self, case):
        ls, cs = case
        exact = build_ct_graph(ls, cs)
        beamed = BeamCleaner(cs, beam_width=10_000).build(ls)
        assert dict(beamed.paths()) == pytest.approx(dict(exact.paths()))
        beamed.validate()

    def test_narrow_beam_is_valid_subset(self, case):
        ls, cs = case
        exact = build_ct_graph(ls, cs)
        exact_paths = dict(exact.paths())
        beamed = BeamCleaner(cs, beam_width=1).build(ls)
        beamed.validate()
        paths = dict(beamed.paths())
        assert math.fsum(paths.values()) == pytest.approx(1.0)
        for trajectory in paths:
            assert trajectory in exact_paths
        assert beamed.num_nodes <= exact.num_nodes

    def test_beam_keeps_high_mass_trajectory(self, case):
        ls, cs = case
        exact = build_ct_graph(ls, cs)
        best = max(dict(exact.paths()).items(), key=lambda kv: kv[1])[0]
        beamed = BeamCleaner(cs, beam_width=2).build(ls)
        assert beamed.trajectory_probability(best) > 0.0

    def test_inconsistent_instance_raises(self):
        ls = LSequence([{"A": 1.0}, {"B": 1.0}])
        cs = ConstraintSet([Unreachable("A", "B")])
        with pytest.raises(InconsistentReadingsError):
            BeamCleaner(cs, beam_width=8).build(ls)

    def test_long_sequence_bounded_levels(self):
        rows = [{"A": 0.4, "B": 0.4, "C": 0.2}] * 200
        cs = ConstraintSet([Latency("B", 3)])
        beamed = BeamCleaner(cs, beam_width=4).build(LSequence(rows))
        for tau in range(beamed.duration):
            assert len(beamed.level(tau)) <= 4
