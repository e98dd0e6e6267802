"""Tests for trajectory sampling (ancestral over ct-graphs and rejection)."""

import pytest

np = pytest.importorskip("numpy", exc_type=ImportError)

from repro.core.algorithm import build_ct_graph
from repro.core.constraints import ConstraintSet, Unreachable
from repro.core.lsequence import LSequence
from repro.core.naive import NaiveConditioner
from repro.core.sampling import TrajectorySampler, rejection_sample
from repro.core.validity import is_valid_trajectory


@pytest.fixture
def constrained_case():
    ls = LSequence([{"A": 0.5, "B": 0.5},
                    {"B": 0.5, "C": 0.5},
                    {"C": 0.5, "D": 0.5}])
    cs = ConstraintSet([Unreachable("A", "C"), Unreachable("B", "D")])
    return ls, cs


class TestTrajectorySampler:
    def test_samples_have_graph_length(self, constrained_case, rng):
        ls, cs = constrained_case
        graph = build_ct_graph(ls, cs)
        sampler = TrajectorySampler(graph, rng)
        assert all(len(t) == ls.duration for t in sampler.sample_many(20))

    def test_samples_are_always_valid(self, constrained_case, rng):
        ls, cs = constrained_case
        graph = build_ct_graph(ls, cs)
        sampler = TrajectorySampler(graph, rng)
        for trajectory in sampler.sample_many(100):
            assert is_valid_trajectory(trajectory, cs)
            assert ls.trajectory_prior(trajectory) > 0

    def test_empirical_frequencies_match_conditioned(self, constrained_case):
        ls, cs = constrained_case
        graph = build_ct_graph(ls, cs)
        expected = NaiveConditioner(ls, cs).conditioned_distribution()
        sampler = TrajectorySampler(graph, np.random.default_rng(7))
        counts = {}
        n = 4000
        for trajectory in sampler.sample_many(n):
            counts[trajectory] = counts.get(trajectory, 0) + 1
        for trajectory, probability in expected.items():
            frequency = counts.get(trajectory, 0) / n
            assert frequency == pytest.approx(probability, abs=0.03)

    def test_deterministic_given_rng(self, constrained_case):
        ls, cs = constrained_case
        graph = build_ct_graph(ls, cs)
        a = list(TrajectorySampler(graph, np.random.default_rng(1)).sample_many(10))
        b = list(TrajectorySampler(graph, np.random.default_rng(1)).sample_many(10))
        assert a == b


class TestRejectionSampling:
    def test_accepted_samples_are_valid(self, constrained_case, rng):
        ls, cs = constrained_case
        accepted, attempts = rejection_sample(ls, cs, 50, rng)
        assert len(accepted) == 50
        assert attempts >= 50
        assert all(is_valid_trajectory(t, cs) for t in accepted)

    def test_max_attempts_bounds_work(self, rng):
        ls = LSequence([{"A": 0.99, "B": 0.01}, {"C": 1.0}])
        cs = ConstraintSet([Unreachable("A", "C")])
        accepted, attempts = rejection_sample(ls, cs, 100, rng,
                                              max_attempts=200)
        assert attempts == 200 or len(accepted) == 100
        assert attempts <= 200

    def test_unconstrained_acceptance_is_total(self, rng):
        ls = LSequence([{"A": 0.5, "B": 0.5}] * 3)
        accepted, attempts = rejection_sample(ls, ConstraintSet(), 20, rng)
        assert len(accepted) == 20
        assert attempts == 20

    def test_ct_graph_sampling_beats_rejection_on_tight_constraints(self):
        # A needle-in-a-haystack prior: rejection wastes many draws, the
        # ct-graph sampler never rejects (the paper's Section 7 argument).
        ls = LSequence([{"A": 0.05, "B": 0.95}, {"C": 1.0}])
        cs = ConstraintSet([Unreachable("B", "C")])
        graph = build_ct_graph(ls, cs)
        sampler = TrajectorySampler(graph, np.random.default_rng(3))
        assert all(t == ("A", "C") for t in sampler.sample_many(10))
        _, attempts = rejection_sample(ls, cs, 10,
                                       np.random.default_rng(3))
        assert attempts > 10  # rejection needed extra draws
