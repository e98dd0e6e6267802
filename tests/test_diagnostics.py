"""Tests for inconsistency diagnosis."""

from hypothesis import given, settings, strategies as st

from repro.core.algorithm import CleaningOptions, build_ct_graph
from repro.core.constraints import (
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.core.diagnostics import diagnose
from repro.core.lsequence import LSequence
from repro.errors import InconsistentReadingsError


class TestDiagnose:
    def test_consistent_data(self):
        ls = LSequence([{"A": 1.0}, {"B": 1.0}])
        report = diagnose(ls, ConstraintSet())
        assert report.is_consistent
        assert report.failed_at is None
        assert "consistent" in report.summary()

    def test_du_dead_end_located_and_explained(self):
        ls = LSequence([{"A": 1.0}, {"B": 1.0}, {"C": 1.0}])
        cs = ConstraintSet([Unreachable("B", "C")])
        report = diagnose(ls, cs)
        assert report.failed_at == 2
        assert report.frontier_locations == ("B",)
        assert report.candidate_locations == ("C",)
        (move,) = report.blocked
        assert move.reason == "unreachable"
        assert "unreachable(B, C)" in str(move)
        assert "timestep 2" in report.summary()

    def test_latency_dead_end_explained(self):
        ls = LSequence([{"A": 1.0}, {"B": 1.0}, {"A": 1.0}])
        cs = ConstraintSet([Latency("B", 3)])
        report = diagnose(ls, cs)
        assert report.failed_at == 2
        assert any(move.reason == "latency" for move in report.blocked)

    def test_travelingtime_dead_end_explained(self):
        ls = LSequence([{"A": 1.0}, {"B": 1.0}, {"C": 1.0}])
        cs = ConstraintSet([TravelingTime("A", "C", 4)])
        report = diagnose(ls, cs)
        assert report.failed_at == 2
        assert any(move.reason == "travelingTime" for move in report.blocked)
        assert any("left A at 0" in move.detail for move in report.blocked)

    def test_strict_truncation_source_failure(self):
        ls = LSequence([{"A": 1.0}])
        cs = ConstraintSet([Latency("A", 3)])
        report = diagnose(ls, cs, CleaningOptions("strict"))
        assert report.failed_at == 0
        assert not report.frontier_locations

    def test_blocked_list_is_capped(self):
        rows = [{chr(ord("A") + i): 1.0 / 8 for i in range(8)},
                {"Z": 1.0}]
        cs = ConstraintSet([Unreachable(chr(ord("A") + i), "Z")
                            for i in range(8)])
        report = diagnose(LSequence(rows), cs, max_blocked=3)
        assert len(report.blocked) == 3


locations = st.sampled_from("ABC")


@st.composite
def random_cases(draw):
    duration = draw(st.integers(min_value=1, max_value=5))
    rows = []
    for _ in range(duration):
        support = draw(st.lists(locations, min_size=1, max_size=3,
                                unique=True))
        rows.append({l: 1.0 / len(support) for l in support})
    constraints = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        kind = draw(st.sampled_from(["du", "lt", "tt"]))
        if kind == "du":
            constraints.append(Unreachable(draw(locations), draw(locations)))
        elif kind == "lt":
            constraints.append(Latency(draw(locations), draw(st.integers(2, 3))))
        else:
            a = draw(locations)
            b = draw(locations.filter(lambda x: x != a))
            constraints.append(TravelingTime(a, b, draw(st.integers(2, 3))))
    return LSequence(rows), ConstraintSet(constraints)


@settings(max_examples=300, deadline=None)
@given(random_cases())
def test_diagnosis_agrees_with_the_cleaner(case):
    """diagnose() says inconsistent exactly when build_ct_graph raises."""
    lsequence, constraints = case
    report = diagnose(lsequence, constraints)
    try:
        build_ct_graph(lsequence, constraints)
        cleanable = True
    except InconsistentReadingsError:
        cleanable = False
    assert report.is_consistent == cleanable
    if not report.is_consistent:
        assert 0 <= report.failed_at < lsequence.duration
