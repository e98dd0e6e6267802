"""Soundness of the abstract-interpretation envelope (C007-C010).

The load-bearing property suite: for random instances the C007 envelope
width must dominate the actual per-level width of the built
``FlatCTGraph`` while staying under C006's product bound, and a C009
zero-level verdict must imply ``build_ct_graph`` raising
``ZeroMassError``.  Plus unit coverage of the C010 size estimate, which
no build path consults.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.advisor as advisor
from repro.analysis import analyze
from repro.analysis.advisor import EngineAdvice, advise
from repro.analysis.envelope import ConstraintEnvelope, estimate_graph_bytes
from repro.analysis.rules import ctgraph_size_bounds
from repro.core.algorithm import CleaningOptions, build_ct_graph
from repro.core.constraints import (
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.core.lsequence import LSequence
from repro.errors import ZeroMassError
from repro.runtime import SharedCleaningPlan, clean_many
from repro.store import GraphStore

_LOCATIONS = ("A", "B", "C")


@st.composite
def small_instances(draw):
    """A tiny l-sequence plus a random mixed constraint set."""
    duration = draw(st.integers(min_value=1, max_value=5))
    supports = [
        draw(st.sets(st.sampled_from(_LOCATIONS), min_size=1, max_size=3))
        for _ in range(duration)
    ]
    lsequence = LSequence(
        [{loc: 1.0 / len(support) for loc in support}
         for support in supports])

    pairs = [(a, b) for a in _LOCATIONS for b in _LOCATIONS]
    du = draw(st.sets(st.sampled_from(pairs), max_size=6))
    tt_pairs = [(a, b) for a, b in pairs if a != b]
    tt = draw(st.sets(st.sampled_from(tt_pairs), max_size=2))
    lt = draw(st.sets(st.sampled_from(_LOCATIONS), max_size=2))
    constraints = ConstraintSet(
        [Unreachable(a, b) for a, b in sorted(du)]
        + [TravelingTime(a, b, draw(st.integers(2, 4)))
           for a, b in sorted(tt)]
        + [Latency(location, draw(st.integers(2, 3)))
           for location in sorted(lt)])
    strict = draw(st.booleans())
    return lsequence, constraints, strict


@settings(max_examples=200, deadline=None)
@given(small_instances())
def test_envelope_width_is_sound_and_tighter_than_c006(instance):
    """actual width <= C007 envelope <= C006 product bound, pointwise;
    and an envelope zero-mass verdict implies ZeroMassError."""
    lsequence, constraints, strict = instance
    policy = "strict" if strict else "lenient"
    envelope = ConstraintEnvelope(lsequence, constraints,
                                  strict_truncation=strict)
    widths = envelope.width_bounds()
    c006 = ctgraph_size_bounds(lsequence, constraints)
    assert len(widths) == lsequence.duration
    # C007 <= C006, always (zero-mass instances included: widths just
    # collapse to zero past the empty level).
    assert all(w <= c for w, c in zip(widths, c006))
    try:
        graph = build_ct_graph(
            lsequence, constraints,
            CleaningOptions(engine="reference", materialize="flat",
                            truncated_stay_policy=policy))
    except ZeroMassError:
        # Emptiness may or may not be provable abstractly (C005 is the
        # complete test); nothing more to check either way.
        return
    # The build succeeded, so the envelope must not claim zero mass...
    assert not envelope.proves_zero_mass
    # ...and must dominate the actual per-level width.
    actual = [graph.level_size(tau) for tau in range(graph.duration)]
    assert all(a <= w for a, w in zip(actual, widths))
    assert graph.num_edges <= sum(envelope.edge_bounds())


class TestEnvelope:
    CONSTRAINTS = ConstraintSet([
        Unreachable("A", "C"), Unreachable("C", "A"),
        Latency("B", 3),
        TravelingTime("A", "D", 4), TravelingTime("D", "A", 4),
    ])

    def test_dead_candidate_detected(self):
        # A -> C is forbidden, so C at timestep 1 can never carry mass.
        ls = LSequence([{"A": 1.0}, {"B": 0.5, "C": 0.5}])
        envelope = ConstraintEnvelope(ls, self.CONSTRAINTS)
        assert envelope.dead_candidates() == [(1, "C")]
        assert envelope.forced_levels() == [(1, "B")]
        assert not envelope.proves_zero_mass

    def test_zero_mass_proved_by_intervals(self):
        # TravelingTime(A, D, 4) forbids the direct 1-step A -> D move.
        ls = LSequence([{"A": 1.0}, {"D": 1.0}])
        envelope = ConstraintEnvelope(ls, self.CONSTRAINTS)
        assert envelope.proves_zero_mass
        assert envelope.first_empty_level == 1
        with pytest.raises(ZeroMassError):
            build_ct_graph(ls, self.CONSTRAINTS)

    def test_departure_interval_tracks_tt_window(self):
        ls = LSequence([{"A": 1.0}, {"B": 1.0}, {"B": 1.0}, {"D": 1.0}])
        envelope = ConstraintEnvelope(ls, self.CONSTRAINTS)
        state = envelope.state(1, "B")
        assert state is not None
        entry = state.departures["A"]
        assert (entry.earliest, entry.latest) == (0, 0)
        assert not entry.absent_possible
        # Arriving at D at tau=3 requires the A-departure to be >= 4 steps
        # old — impossible — so the whole level is infeasible.
        assert envelope.feasible_locations(3) == ()
        assert envelope.proves_zero_mass

    def test_stay_interval_respects_latency(self):
        ls = LSequence([{"B": 1.0}] * 4)
        envelope = ConstraintEnvelope(ls, self.CONSTRAINTS)
        first = envelope.state(0, "B")
        assert (first.stay_lo, first.stay_hi) == (1, 1)
        assert not first.stay_none_possible
        third = envelope.state(2, "B")
        # After three timesteps the 3-step bound is met: None possible,
        # no binding counter remains (bound - 1 = 2 < advanced lo).
        assert third.stay_none_possible
        assert third.stay_lo > third.stay_hi

    def test_width_bounds_cached_and_copied(self):
        ls = LSequence([{"A": 0.5, "B": 0.5}] * 3)
        envelope = ConstraintEnvelope(ls, self.CONSTRAINTS)
        first = envelope.width_bounds()
        first[0] = -1
        assert envelope.width_bounds()[0] != -1

    def test_estimate_graph_bytes_flat_is_smaller(self):
        node_form, flat_form = estimate_graph_bytes([10, 10], [20])
        assert 0 < flat_form < node_form


class TestAdvisor:
    CONSTRAINTS = TestEnvelope.CONSTRAINTS

    def test_estimate_bounds_the_built_graph(self):
        ls = LSequence([{"A": 0.4, "B": 0.35, "C": 0.25},
                        {"B": 0.55, "D": 0.45},
                        {"B": 0.3, "C": 0.4, "D": 0.3},
                        {"A": 0.65, "B": 0.35}] * 30)
        advice = advise(ls, self.CONSTRAINTS)
        assert isinstance(advice, EngineAdvice)
        assert not advice.zero_mass
        assert advice.duration == 120
        graph = build_ct_graph(ls, self.CONSTRAINTS,
                               CleaningOptions(materialize="flat"))
        assert graph.num_nodes <= advice.predicted_states
        assert max(graph.level_size(tau) for tau in range(graph.duration)) \
            <= advice.peak_level_width
        assert advice.predicted_flat_bytes < advice.predicted_node_bytes
        assert advice.materialize == "nodes"

    def test_zero_mass_is_proved(self):
        ls = LSequence([{"A": 1.0}, {"D": 1.0}])
        advice = advise(ls, self.CONSTRAINTS)
        assert advice.zero_mass
        assert advice.predicted_states == 1
        (c010,) = analyze(self.CONSTRAINTS, readings=ls,
                          advise=True).by_code("C010")
        assert "empties at timestep 1" in c010.message
        assert c010.data["zero_mass"] is True


class TestNoAdvisorOnTheBuildPath:
    """``advise`` is a report: no cleaning run builds an envelope."""

    CONSTRAINTS = TestEnvelope.CONSTRAINTS

    @pytest.fixture(autouse=True)
    def advise_raises(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the build path called advise()")

        monkeypatch.setattr(advisor, "advise", refuse)

    @pytest.mark.parametrize("options", [
        CleaningOptions(),
        CleaningOptions(backend="auto", materialize="flat"),
    ], ids=["default", "flat-auto"])
    def test_build_ct_graph(self, options):
        ls = LSequence([{"A": 0.5, "B": 0.5}] * 12)
        build_ct_graph(ls, self.CONSTRAINTS, options)
        build_ct_graph(ls, self.CONSTRAINTS, options,
                       plan=SharedCleaningPlan(self.CONSTRAINTS))

    def test_clean_many(self, tmp_path):
        objects = [LSequence([{"A": 0.5, "B": 0.5}] * 12),
                   LSequence([{"A": 1.0}, {"D": 1.0}])]
        for store in (None, GraphStore(tmp_path)):
            result = clean_many(objects, self.CONSTRAINTS, workers=1,
                                store=store)
            assert [outcome.error_type for outcome in result] == \
                [None, "ZeroMassError"]


class TestAdviseReport:
    CONSTRAINTS = TestEnvelope.CONSTRAINTS

    def test_c010_only_with_advise_flag(self):
        ls = LSequence([{"A": 0.5, "B": 0.5}] * 4)
        plain = analyze(self.CONSTRAINTS, readings=ls)
        assert "C010" not in {d.code for d in plain}
        advised = analyze(self.CONSTRAINTS, readings=ls, advise=True)
        (c010,) = advised.by_code("C010")
        assert "engine" not in c010.data
        assert c010.data["materialize"] == "nodes"
        assert c010.data["predicted_states"] > 0
        assert c010.message.startswith("size estimate: <=")

    def test_c007_reports_tightening(self):
        ls = LSequence([{"A": 0.5, "B": 0.5}] * 4)
        report = analyze(self.CONSTRAINTS, readings=ls)
        (c007,) = report.by_code("C007")
        (c006,) = report.by_code("C006")
        assert c007.data["total"] <= c006.data["total"]
        assert c007.data["c006_total"] == c006.data["total"]
        assert "node_bytes" in c006.data and "flat_bytes" in c006.data

    def test_c008_reports_dead_candidates(self):
        ls = LSequence([{"A": 1.0}, {"B": 0.5, "C": 0.5}])
        report = analyze(self.CONSTRAINTS, readings=ls)
        warnings = [d for d in report.by_code("C008")
                    if d.severity.name == "WARNING"]
        (dead,) = warnings
        assert dead.data["dead"] == [[1, "C"]]

    def test_c009_fires_with_c005(self):
        ls = LSequence([{"A": 1.0}, {"D": 1.0}])
        report = analyze(self.CONSTRAINTS, readings=ls)
        codes = {d.code for d in report.errors}
        assert {"C005", "C009"} <= codes
