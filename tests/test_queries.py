"""Tests for stay and trajectory queries over ct-graphs and l-sequences."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algorithm import build_ct_graph
from repro.core.constraints import (
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.core.lsequence import LSequence
from repro.core.naive import NaiveConditioner
from repro.errors import InconsistentReadingsError, QueryError
from repro.queries.pattern import Pattern, PatternAtom
from repro.queries.stay import stay_query, stay_query_prior
from repro.queries.trajectory import TrajectoryQuery
from repro.queries.accuracy import (
    stay_accuracy,
    stay_accuracy_on,
    trajectory_accuracy_on,
    trajectory_query_accuracy,
)
from repro.store import load_ctg, save_ctg


@pytest.fixture
def small_case():
    ls = LSequence([{"A": 0.5, "B": 0.5},
                    {"B": 0.5, "C": 0.5},
                    {"C": 0.5, "D": 0.5}])
    cs = ConstraintSet([Unreachable("A", "C"), Unreachable("B", "D")])
    return ls, cs, build_ct_graph(ls, cs)


class TestStayQueries:
    def test_matches_naive_marginal(self, small_case):
        ls, cs, graph = small_case
        naive = NaiveConditioner(ls, cs)
        for tau in range(ls.duration):
            expected = naive.location_marginal(tau)
            got = stay_query(graph, tau)
            assert set(got) == set(expected)
            for location, probability in expected.items():
                assert got[location] == pytest.approx(probability)

    def test_prior_stay_query(self, small_case):
        ls, _, _ = small_case
        assert stay_query_prior(ls, 0) == {"A": 0.5, "B": 0.5}

    def test_out_of_range_rejected(self, small_case):
        _, _, graph = small_case
        with pytest.raises(QueryError):
            stay_query(graph, 99)


class TestTrajectoryQueries:
    def test_accepts_string_or_pattern(self, small_case):
        _, _, graph = small_case
        from_string = TrajectoryQuery("? C ?").probability(graph)
        from_pattern = TrajectoryQuery(Pattern.parse("? C ?")).probability(graph)
        assert from_string == from_pattern

    def test_probability_matches_enumeration(self, small_case):
        ls, cs, graph = small_case
        naive = NaiveConditioner(ls, cs).conditioned_distribution()
        for text in ("? B ?", "? A ? C ?", "? B[2] ?", "? D ?", "A ? ?"):
            query = TrajectoryQuery(text)
            expected = sum(p for t, p in naive.items() if query.matches(t))
            assert query.probability(graph) == pytest.approx(expected), text

    def test_prior_probability_matches_enumeration(self, small_case):
        ls, _, _ = small_case
        for text in ("? B ?", "? A ? C ?", "? B[2] ?"):
            query = TrajectoryQuery(text)
            expected = sum(p for t, p in ls.trajectories()
                           if query.matches(t))
            assert query.probability_prior(ls) == pytest.approx(expected), text

    def test_certain_and_impossible_patterns(self, small_case):
        _, _, graph = small_case
        assert TrajectoryQuery("?").probability(graph) == pytest.approx(1.0)
        assert TrajectoryQuery("? Z ?").probability(graph) == 0.0


class TestAccuracyMetrics:
    def test_stay_accuracy_reads_truth_probability(self):
        assert stay_accuracy({"A": 0.7, "B": 0.3}, "A") == 0.7
        assert stay_accuracy({"A": 0.7}, "Z") == 0.0

    def test_trajectory_accuracy_symmetric(self):
        assert trajectory_query_accuracy(0.8, True) == pytest.approx(0.8)
        assert trajectory_query_accuracy(0.8, False) == pytest.approx(0.2)

    def test_trajectory_accuracy_validates_probability(self):
        with pytest.raises(QueryError):
            trajectory_query_accuracy(1.7, True)

    def test_accuracy_on_dispatches_by_source(self, small_case, tmp_path):
        ls, _, graph = small_case
        truth = ("A", "B", "C")
        cleaned = stay_accuracy_on(graph, 1, truth)
        raw = stay_accuracy_on(ls, 1, truth)
        assert 0.0 <= raw <= 1.0 and 0.0 <= cleaned <= 1.0
        t_cleaned = trajectory_accuracy_on(graph, "? B ?", truth)
        t_raw = trajectory_accuracy_on(ls, "? B ?", truth)
        assert 0.0 <= t_raw <= 1.0 and 0.0 <= t_cleaned <= 1.0
        # Every flat form scores like the node graph it came from.
        save_ctg(graph, tmp_path / "graph.ctg")
        with load_ctg(tmp_path / "graph.ctg", mmap=True) as mapped:
            for flat in (graph.to_flat(), mapped):
                assert stay_accuracy_on(flat, 1, truth) == cleaned
                assert trajectory_accuracy_on(flat, "? B ?",
                                              truth) == t_cleaned


# ----------------------------------------------------------------------
# property test: DP over the graph == enumeration, on random instances
# ----------------------------------------------------------------------

locations = st.sampled_from("ABC")


@st.composite
def query_cases(draw):
    duration = draw(st.integers(min_value=1, max_value=5))
    rows = []
    for _ in range(duration):
        support = draw(st.lists(locations, min_size=1, max_size=3, unique=True))
        weights = [draw(st.floats(min_value=0.1, max_value=1.0))
                   for _ in support]
        total = sum(weights)
        rows.append({l: w / total for l, w in zip(support, weights)})
    constraints = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(["du", "lt", "tt"]))
        if kind == "du":
            constraints.append(Unreachable(draw(locations), draw(locations)))
        elif kind == "lt":
            constraints.append(Latency(draw(locations),
                                       draw(st.integers(min_value=2, max_value=3))))
        else:
            a = draw(locations)
            b = draw(locations.filter(lambda x: x != a))
            constraints.append(TravelingTime(a, b, draw(st.integers(2, 3))))
    atoms = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if draw(st.booleans()):
            atoms.append(PatternAtom(None))
        else:
            atoms.append(PatternAtom(draw(locations),
                                     draw(st.integers(min_value=1, max_value=2))))
    return LSequence(rows), ConstraintSet(constraints), Pattern(atoms)


@settings(max_examples=300, deadline=None)
@given(query_cases())
def test_query_dp_matches_enumeration(case):
    lsequence, constraints, pattern = case
    try:
        naive = NaiveConditioner(lsequence, constraints).conditioned_distribution()
    except InconsistentReadingsError:
        return
    graph = build_ct_graph(lsequence, constraints)
    query = TrajectoryQuery(pattern)
    expected = math.fsum(p for t, p in naive.items() if query.matches(t))
    assert query.probability(graph) == pytest.approx(expected, abs=1e-9)

    prior_expected = math.fsum(p for t, p in lsequence.trajectories()
                               if query.matches(t))
    assert query.probability_prior(lsequence) == pytest.approx(
        prior_expected, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(query_cases())
def test_stay_distribution_sums_to_one(case):
    lsequence, constraints, _ = case
    try:
        graph = build_ct_graph(lsequence, constraints)
    except InconsistentReadingsError:
        return
    for tau in range(lsequence.duration):
        assert math.fsum(stay_query(graph, tau).values()) == pytest.approx(1.0)
