"""Property-based equivalence: Algorithm 1 == exact conditioning by
enumeration, on randomly generated instances (the load-bearing invariant of
the whole reproduction — DESIGN.md §7)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algorithm import ENGINES, CleaningOptions, build_ct_graph
from repro.core.constraints import (
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.core.lsequence import LSequence
from repro.core.naive import NaiveConditioner
from repro.errors import InconsistentReadingsError
from repro.runtime.plan import SharedCleaningPlan

LOCATIONS = ("A", "B", "C", "D")

locations = st.sampled_from(LOCATIONS)


@st.composite
def lsequences(draw):
    duration = draw(st.integers(min_value=1, max_value=6))
    rows = []
    for _ in range(duration):
        support = draw(st.lists(locations, min_size=1, max_size=3,
                                unique=True))
        weights = [draw(st.floats(min_value=0.05, max_value=1.0))
                   for _ in support]
        total = sum(weights)
        rows.append({loc: w / total for loc, w in zip(support, weights)})
    return LSequence(rows)


@st.composite
def constraint_sets(draw):
    constraints = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(["du", "tt", "lt"]))
        if kind == "du":
            constraints.append(Unreachable(draw(locations), draw(locations)))
        elif kind == "tt":
            a = draw(locations)
            b = draw(locations.filter(lambda x: x != a))
            constraints.append(
                TravelingTime(a, b, draw(st.integers(min_value=2, max_value=4))))
        else:
            constraints.append(
                Latency(draw(locations), draw(st.integers(min_value=2, max_value=4))))
    return ConstraintSet(constraints)


@st.composite
def tt_du_heavy_instances(draw):
    """``(lsequence, constraints)`` where the departure filter's
    reachability test bites: 5 locations, up to 9 steps of 1-3
    candidates, 2-6 TT bounds of 2-6 steps, 0-3 DU pairs that cut walks
    through the supports, and an optional LT."""
    five = st.sampled_from(("A", "B", "C", "D", "E"))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=9))):
        support = draw(st.lists(five, min_size=1, max_size=3, unique=True))
        weights = [draw(st.floats(min_value=0.05, max_value=1.0))
                   for _ in support]
        total = sum(weights)
        rows.append({loc: w / total for loc, w in zip(support, weights)})
    constraints = []
    for _ in range(draw(st.integers(min_value=2, max_value=6))):
        a = draw(five)
        b = draw(five.filter(lambda x: x != a))
        constraints.append(TravelingTime(
            a, b, draw(st.integers(min_value=2, max_value=6))))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        constraints.append(Unreachable(draw(five), draw(five)))
    if draw(st.booleans()):
        constraints.append(Latency(
            draw(five), draw(st.integers(min_value=2, max_value=4))))
    return LSequence(rows), ConstraintSet(constraints)


def _run_both(lsequence, constraints, strict):
    options = CleaningOptions("strict" if strict else "lenient")
    naive = NaiveConditioner(lsequence, constraints, strict_truncation=strict)
    try:
        expected = naive.conditioned_distribution()
    except InconsistentReadingsError:
        expected = None
    try:
        graph = build_ct_graph(lsequence, constraints, options)
    except InconsistentReadingsError:
        graph = None
    return expected, graph


@settings(max_examples=300, deadline=None)
@given(lsequences(), constraint_sets(), st.booleans())
def test_same_valid_set_and_probabilities(lsequence, constraints, strict):
    expected, graph = _run_both(lsequence, constraints, strict)
    assert (expected is None) == (graph is None), \
        "one engine found valid trajectories, the other did not"
    if expected is None:
        return
    got = dict(graph.paths())
    assert set(got) == set(expected)
    for trajectory, probability in expected.items():
        assert got[trajectory] == pytest.approx(probability, abs=1e-9)


@settings(max_examples=600, deadline=None)
@given(tt_du_heavy_instances(), st.booleans(), st.booleans())
def test_same_valid_set_on_tt_du_heavy_instances(instance, strict, shared):
    """Both engines against enumeration where DU pairs leave supported TT
    destinations unreachable, so the filter drops most ``TL`` entries.
    A shared plan is first warmed on the reversed l-sequence, so the
    checked object reuses memoised rows keyed by other objects' masks."""
    lsequence, constraints = instance
    naive = NaiveConditioner(lsequence, constraints, strict_truncation=strict)
    try:
        expected = naive.conditioned_distribution()
    except InconsistentReadingsError:
        expected = None
    for engine in ENGINES:
        options = CleaningOptions("strict" if strict else "lenient",
                                  engine=engine)
        plan = None
        if shared:
            plan = SharedCleaningPlan(constraints)
            reversed_rows = [lsequence.candidates(tau) for tau
                             in range(lsequence.duration - 1, -1, -1)]
            try:
                build_ct_graph(LSequence(reversed_rows), constraints,
                               options, plan=plan)
            except InconsistentReadingsError:
                pass
        try:
            graph = build_ct_graph(lsequence, constraints, options,
                                   plan=plan)
        except InconsistentReadingsError:
            graph = None
        assert (expected is None) == (graph is None), engine
        if expected is None:
            continue
        got = dict(graph.paths())
        assert set(got) == set(expected), engine
        for trajectory, probability in expected.items():
            assert got[trajectory] == pytest.approx(probability, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(lsequences(), constraint_sets())
def test_probabilities_sum_to_one(lsequence, constraints):
    expected, graph = _run_both(lsequence, constraints, strict=False)
    if graph is None:
        return
    assert math.fsum(p for _, p in graph.paths()) == pytest.approx(1.0)
    graph.validate()


@settings(max_examples=200, deadline=None)
@given(lsequences(), constraint_sets())
def test_trajectory_probability_lookup_matches_paths(lsequence, constraints):
    expected, graph = _run_both(lsequence, constraints, strict=False)
    if graph is None:
        return
    for trajectory, probability in expected.items():
        assert graph.trajectory_probability(trajectory) == pytest.approx(
            probability, abs=1e-9)
    # And invalid/incompatible trajectories score 0.
    for trajectory, prior in lsequence.trajectories():
        if trajectory not in expected:
            assert graph.trajectory_probability(trajectory) == 0.0


@settings(max_examples=200, deadline=None)
@given(lsequences(), constraint_sets())
def test_marginals_match_enumeration(lsequence, constraints):
    options = CleaningOptions()
    naive = NaiveConditioner(lsequence, constraints)
    try:
        naive.conditioned_distribution()
    except InconsistentReadingsError:
        return
    graph = build_ct_graph(lsequence, constraints, options)
    for tau in range(lsequence.duration):
        expected = naive.location_marginal(tau)
        got = graph.location_marginal(tau)
        assert set(got) == set(expected)
        for location, probability in expected.items():
            assert got[location] == pytest.approx(probability, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(lsequences(), constraint_sets())
def test_num_valid_trajectories_matches(lsequence, constraints):
    expected, graph = _run_both(lsequence, constraints, strict=False)
    if graph is None:
        return
    assert graph.num_valid_trajectories() == len(expected)


@settings(max_examples=150, deadline=None)
@given(lsequences())
def test_no_constraints_graph_is_lossless(lsequence):
    """With an empty constraint set the graph must reproduce the prior."""
    graph = build_ct_graph(lsequence, ConstraintSet())
    assert graph.num_valid_trajectories() == lsequence.num_trajectories()
    for trajectory, prior in lsequence.trajectories():
        assert graph.trajectory_probability(trajectory) == pytest.approx(
            prior, abs=1e-9)
