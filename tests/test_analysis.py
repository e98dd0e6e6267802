"""Tests for the static constraint/map analyzer (repro.analysis).

One class per rule code (C001-C006, C008, C010), plus the report object,
the advisor, the analyze() orchestration, the pre-flight hook in
build_ct_graph and the `rfid-ctg analyze` CLI subcommand.  The hypothesis
properties at the bottom pin the exact readings pass against brute
force: C005 fires **iff** the naive conditioner finds no valid
trajectory, at diagnose's first dead timestep; C008's dead and forced
entries are the naive valid trajectories' locations; and the advice
counts what an ``engine="reference"`` build builds.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.advisor as advisor
import repro.core.algorithm as algorithm
from repro import (
    CleaningOptions,
    ConstraintSet,
    Latency,
    LSequence,
    NaiveConditioner,
    TravelingTime,
    Unreachable,
    ZeroMassError,
    build_ct_graph,
)
from repro.analysis import (
    RULES,
    AnalysisReport,
    Diagnostic,
    EngineAdvice,
    ReachabilityIndex,
    Severity,
    ZERO_MASS_RULE,
    advise,
    analyze,
    location_universe,
)
from repro.cli import main
from repro.core.diagnostics import diagnose
from repro.core.lsequence import ReadingSequence
from repro.errors import ReadingSequenceError
from repro.io.jsonio import save_constraints
from repro.runtime import SharedCleaningPlan, clean_many
from repro.store import GraphStore

#: A mixed set with TT sources, a latency bound and a DU wall.
TT_CONSTRAINTS = ConstraintSet([
    Unreachable("A", "C"), Unreachable("C", "A"),
    Latency("B", 3),
    TravelingTime("A", "D", 4), TravelingTime("D", "A", 4),
])


def codes(report: AnalysisReport) -> list:
    return [d.code for d in report]


class TestC001ContradictoryStay:
    def test_du_self_loop_plus_latency_is_error(self):
        report = analyze(ConstraintSet([Unreachable("A", "A"),
                                        Latency("A", 2)]))
        (diagnostic,) = report.by_code("C001")
        assert diagnostic.severity is Severity.ERROR
        assert "unreachable(A, A)" in diagnostic.message
        assert "latency(A, 2)" in diagnostic.message
        assert report.has_errors

    def test_du_self_loop_alone_is_fine(self):
        report = analyze(ConstraintSet([Unreachable("A", "A")]))
        assert report.by_code("C001") == ()

    def test_latency_alone_is_fine(self):
        report = analyze(ConstraintSet([Latency("A", 2)]))
        assert report.by_code("C001") == ()

    def test_c001_is_not_a_false_alarm(self):
        """The contradiction is real: every (non-truncated) stay at A dies."""
        cs = ConstraintSet([Unreachable("A", "A"), Latency("A", 3)])
        ls = LSequence([{"A": 0.5, "B": 0.5}] * 3)
        strict = NaiveConditioner(ls, cs, strict_truncation=True)
        for trajectory in strict.conditioned_distribution():
            assert "A" not in trajectory
        # Under the lenient policy only the final-timestep truncated
        # arrival survives — exactly what the diagnostic message states.
        lenient = NaiveConditioner(ls, cs)
        for trajectory in lenient.conditioned_distribution():
            assert "A" not in trajectory[:-1]


class TestC002DeadTravelingTime:
    def test_unreachable_destination_flagged(self):
        # B is fenced off from A entirely: direct step forbidden and the
        # only other location C cannot step to B either.
        cs = ConstraintSet([
            Unreachable("A", "B"), Unreachable("C", "B"),
            Unreachable("B", "B"),
            TravelingTime("A", "B", 3),
        ])
        (diagnostic,) = analyze(cs).by_code("C002")
        assert diagnostic.severity is Severity.WARNING
        assert "travelingTime(A, B, 3)" in diagnostic.message

    def test_multi_hop_reachability_clears_the_constraint(self):
        # A cannot step to B directly, but A -> C -> B exists.
        cs = ConstraintSet([
            Unreachable("A", "B"),
            TravelingTime("A", "B", 3),
            Latency("C", 2),  # mentions C so it joins the universe
        ])
        assert analyze(cs).by_code("C002") == ()

    def test_map_model_widens_the_universe(self):
        # With only the constraints the universe is {A, B} and A -> B is
        # dead; a map model contributing an unconstrained C opens the
        # detour A -> C -> B.  (Anything with location_names works.)
        class FakeMap:
            location_names = ("A", "B", "C")

        cs = ConstraintSet([Unreachable("A", "B"), TravelingTime("A", "B", 2)])
        assert analyze(cs).by_code("C002") != ()
        assert analyze(cs, map_model=FakeMap()).by_code("C002") == ()


class TestC003RedundantConstraints:
    def test_duplicate_statement_reported(self):
        cs = ConstraintSet([Unreachable("A", "B"), Unreachable("A", "B")])
        (diagnostic,) = analyze(cs).by_code("C003")
        assert diagnostic.severity is Severity.INFO
        assert "stated 2 times" in diagnostic.message

    def test_dominated_tt_reported(self):
        cs = ConstraintSet([TravelingTime("A", "B", 2),
                            TravelingTime("A", "B", 5)])
        (diagnostic,) = analyze(cs).by_code("C003")
        assert "dominated" in diagnostic.message
        assert "travelingTime(A, B, 5)" in diagnostic.message

    def test_dominated_latency_reported(self):
        cs = ConstraintSet([Latency("A", 2), Latency("A", 4)])
        (diagnostic,) = analyze(cs).by_code("C003")
        assert "dominated" in diagnostic.message
        assert "latency(A, 4)" in diagnostic.message

    def test_clean_set_has_no_c003(self):
        cs = ConstraintSet([Unreachable("A", "B"), TravelingTime("B", "C", 2),
                            Latency("A", 3)])
        assert analyze(cs).by_code("C003") == ()


class TestC004DeadLocation:
    def test_location_without_in_or_out_steps(self):
        cs = ConstraintSet([
            Unreachable("A", "A"), Unreachable("A", "B"),
            Unreachable("B", "A"),
        ])
        report = analyze(cs)
        subjects = [d.subjects for d in report.by_code("C004")]
        assert ("A",) in subjects

    def test_connected_locations_are_not_dead(self, two_rooms):
        report = analyze(ConstraintSet(), map_model=two_rooms)
        assert report.by_code("C004") == ()

    def test_severity_drops_to_info_without_mass(self):
        cs = ConstraintSet([Unreachable("A", "A"), Unreachable("A", "B"),
                            Unreachable("B", "A")])
        # The reading sequence never touches A, so the dead location is
        # advisory only.
        ls = LSequence([{"B": 1.0}, {"B": 1.0}])
        report = analyze(cs, readings=ls)
        a_diagnostics = [d for d in report.by_code("C004")
                         if d.subjects == ("A",)]
        assert [d.severity for d in a_diagnostics] == [Severity.INFO]


def c005_failed_at(lsequence, constraints, strict=False):
    """C005's ``failed_at``, or ``None`` when C005 is silent."""
    found = analyze(constraints, readings=lsequence,
                    strict_truncation=strict).by_code("C005")
    return found[0].data["failed_at"] if found else None


class TestC005ZeroMass:
    def test_zero_mass_detected(self):
        ls = LSequence([{"A": 1.0}, {"B": 1.0}])
        cs = ConstraintSet([Unreachable("A", "B")])
        report = analyze(cs, readings=ls)
        (diagnostic,) = report.by_code("C005")
        assert diagnostic.severity is Severity.ERROR
        assert diagnostic.data["failed_at"] == 1
        assert ZERO_MASS_RULE == "C005"

    def test_positive_mass_not_flagged(self):
        ls = LSequence([{"A": 0.5, "B": 0.5}, {"A": 0.5, "B": 0.5}])
        report = analyze(ConstraintSet([Unreachable("A", "B")]), readings=ls)
        assert report.by_code("C005") == ()

    def test_latency_truncation_policies_differ(self):
        # A 2-step window cannot finish a 3-step stay: strict truncation
        # kills it, the lenient default keeps it.
        ls = LSequence([{"A": 1.0}, {"A": 1.0}])
        cs = ConstraintSet([Latency("A", 3),
                            Unreachable("A", "B"), Unreachable("B", "A")])
        assert c005_failed_at(ls, cs) is None
        assert c005_failed_at(ls, cs, strict=True) == 1

    def test_first_dead_timestep_positions(self):
        cs = ConstraintSet([Unreachable("A", "B")])
        assert c005_failed_at(
            LSequence([{"A": 1.0}, {"B": 1.0}, {"A": 1.0}]), cs) == 1
        assert c005_failed_at(
            LSequence([{"B": 1.0}, {"A": 1.0}, {"B": 1.0}]), cs) == 2
        assert c005_failed_at(
            LSequence([{"B": 1.0}, {"B": 1.0}]), cs) is None

    def test_traveling_time_kills_late(self):
        # A -> C in one step violates travelingTime(A, C, 3) even through
        # the intermediate B: left A at 0, reached C at 2 < 3.
        ls = LSequence([{"A": 1.0}, {"B": 1.0}, {"C": 1.0}])
        cs = ConstraintSet([TravelingTime("A", "C", 3)])
        assert c005_failed_at(ls, cs) == 2
        relaxed = ConstraintSet([TravelingTime("A", "C", 2)])
        assert c005_failed_at(ls, relaxed) is None

    @pytest.mark.parametrize("rows, failed_at", [
        # travelingTime(A, D, 4) forbids the direct step A -> D...
        ([{"A": 1.0}, {"D": 1.0}], 1),
        # ...and an arrival at D three steps after leaving A.
        ([{"A": 1.0}, {"B": 1.0}, {"B": 1.0}, {"D": 1.0}], 3),
    ], ids=["direct-step", "tt-window"])
    def test_failed_at_is_where_both_builders_raise(self, rows, failed_at):
        ls = LSequence(rows)
        assert c005_failed_at(ls, TT_CONSTRAINTS) == failed_at
        for engine in ("compact", "reference"):
            with pytest.raises(ZeroMassError) as raised:
                build_ct_graph(ls, TT_CONSTRAINTS,
                               CleaningOptions(engine=engine))
            assert raised.value.failed_at == failed_at


class TestC006BlowupEstimate:
    """C006 reports the exact size of the graph one build makes."""

    def test_bound_reported_with_readings(self):
        ls = LSequence([{"A": 0.5, "B": 0.5}] * 4)
        report = analyze(ConstraintSet(), readings=ls)
        (diagnostic,) = report.by_code("C006")
        assert diagnostic.severity is Severity.INFO
        assert diagnostic.data["per_timestep"] == [2, 2, 2, 2]
        assert diagnostic.data["total"] == 8
        assert diagnostic.data["per_timestep_edges"] == [4, 4, 4]

    def test_bound_dominates_actual_node_count(self):
        # The counts and bytes are the built graph's own.
        ls = LSequence([{"A": 0.4, "B": 0.3, "C": 0.3}] * 5)
        cs = ConstraintSet([Latency("A", 3), TravelingTime("B", "C", 3)])
        (c006,) = analyze(cs, readings=ls).by_code("C006")
        graph = build_ct_graph(ls, cs)
        assert c006.data["per_timestep"] == [
            len(graph.level(tau)) for tau in range(graph.duration)]
        assert c006.data["nodes_created"] == graph.stats.nodes_created
        assert c006.data["edges_created"] == graph.stats.edges_created
        assert c006.data["node_bytes"] == graph.estimate_size_bytes()
        assert c006.data["flat_bytes"] == \
            graph.to_flat().estimate_size_bytes()

    def test_no_estimate_without_readings(self):
        assert analyze(ConstraintSet()).by_code("C006") == ()

    def test_no_size_on_zero_mass(self):
        ls = LSequence([{"A": 1.0}, {"B": 0.5, "C": 0.5}])
        report = analyze(ConstraintSet([Unreachable("A", "B"),
                                        Unreachable("A", "C")]),
                         readings=ls)
        assert codes(report) == ["C005"]


class TestAdvisor:
    def test_estimate_equals_the_built_graph(self):
        ls = LSequence([{"A": 0.4, "B": 0.35, "C": 0.25},
                        {"B": 0.55, "D": 0.45},
                        {"B": 0.3, "C": 0.4, "D": 0.3},
                        {"A": 0.65, "B": 0.35}] * 30)
        advice = advise(ls, TT_CONSTRAINTS)
        assert isinstance(advice, EngineAdvice)
        assert not advice.zero_mass and advice.failed_at is None
        assert advice.duration == 120
        graph = build_ct_graph(ls, TT_CONSTRAINTS,
                               CleaningOptions(materialize="flat"))
        assert advice.level_nodes == tuple(
            graph.level_size(tau) for tau in range(graph.duration))
        assert advice.nodes_kept == graph.num_nodes
        assert sum(advice.level_edges) == graph.num_edges
        assert advice.peak_level_width == max(advice.level_nodes)
        assert (advice.nodes_created, advice.edges_created) == (
            graph.stats.nodes_created, graph.stats.edges_created)
        assert advice.flat_bytes == graph.estimate_size_bytes()
        assert advice.flat_bytes < advice.node_bytes
        assert advice.materialize == "nodes"

    def test_zero_mass_is_reported(self):
        ls = LSequence([{"A": 1.0}, {"D": 1.0}])
        advice = advise(ls, TT_CONSTRAINTS)
        assert advice.zero_mass and advice.failed_at == 1
        assert advice.nodes_kept == 0
        (c010,) = analyze(TT_CONSTRAINTS, readings=ls,
                          advise=True).by_code("C010")
        assert "entering timestep 1" in c010.message
        assert c010.data["zero_mass"] is True

    def test_one_build_per_advice(self, monkeypatch):
        calls = []
        build = algorithm.build_ct_graph

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(algorithm, "build_ct_graph", counting)
        advise(LSequence([{"A": 0.5, "B": 0.5}] * 4), TT_CONSTRAINTS)
        assert len(calls) == 1

    @pytest.mark.parametrize("flag", [False, True], ids=["plain", "advise"])
    def test_one_advice_per_analysis(self, monkeypatch, flag):
        calls = []
        original = advisor.advise

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(advisor, "advise", counting)
        ls = LSequence([{"A": 0.5, "B": 0.5}] * 4)
        analyze(TT_CONSTRAINTS, readings=ls, advise=flag)
        assert len(calls) == 1
        analyze(TT_CONSTRAINTS, advise=flag)
        assert len(calls) == 1


class TestNoAdvisorOnTheBuildPath:
    """``advise`` is a report: no cleaning run consults it."""

    CONSTRAINTS = TT_CONSTRAINTS

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
    CONSTRAINTS = TT_CONSTRAINTS

    def test_c010_only_with_advise_flag(self):
        ls = LSequence([{"A": 0.5, "B": 0.5}] * 4)
        plain = analyze(self.CONSTRAINTS, readings=ls)
        assert "C010" not in {d.code for d in plain}
        advised = analyze(self.CONSTRAINTS, readings=ls, advise=True)
        (c010,) = advised.by_code("C010")
        assert "engine" not in c010.data
        assert c010.data["materialize"] == "nodes"
        assert c010.data["nodes_kept"] > 0
        assert c010.message.startswith("materialisation: ")

    def test_c008_reports_dead_candidates(self):
        ls = LSequence([{"A": 1.0}, {"B": 0.5, "C": 0.5}])
        report = analyze(self.CONSTRAINTS, readings=ls)
        warnings = [d for d in report.by_code("C008")
                    if d.severity.name == "WARNING"]
        (dead,) = warnings
        assert dead.data["dead"] == [[1, "C"]]

    def test_dead_candidate_detected(self):
        # A -> C is forbidden, so C at timestep 1 can never carry mass.
        ls = LSequence([{"A": 1.0}, {"B": 0.5, "C": 0.5}])
        advice = advise(ls, self.CONSTRAINTS)
        assert advice.dead == ((1, "C"),)
        assert advice.forced == ((1, "B"),)
        assert not advice.zero_mass

    def test_c008_reports_what_the_backward_sweep_kills(self):
        # The forward pass reaches C at timestep 1, but C cannot step to
        # D: only the backward sweep finds the candidate dead.
        ls = LSequence([{"B": 1.0}, {"B": 0.5, "C": 0.5}, {"D": 1.0}])
        advice = advise(ls, ConstraintSet([Unreachable("C", "D")]))
        assert advice.dead == ((1, "C"),)
        assert advice.forced == ((1, "B"),)
        assert advice.nodes_created == advice.nodes_kept + 1


class TestReachabilityIndex:
    def test_successors_respect_du(self):
        cs = ConstraintSet([Unreachable("A", "B")])
        index = ReachabilityIndex(("A", "B"), cs)
        assert index.successors("A") == ("A",)
        assert index.predecessors("B") == ("B",)
        assert index.can_step("B", "A")
        assert not index.can_step("A", "B")

    def test_closure_is_multi_step(self):
        cs = ConstraintSet([Unreachable("A", "C")])
        index = ReachabilityIndex(("A", "B", "C"), cs)
        assert index.can_ever_reach("A", "C")  # via B

    def test_universe_from_constraints_prior_and_readings(self):
        cs = ConstraintSet([Unreachable("A", "B"), TravelingTime("C", "D", 2),
                            Latency("E", 2)])
        assert location_universe(cs) == ("A", "B", "C", "D", "E")
        ls = LSequence([{"F": 1.0}])
        assert "F" in location_universe(cs, lsequence=ls)


class TestReport:
    def test_filters_and_exit_code(self):
        report = AnalysisReport((
            Diagnostic("C001", Severity.ERROR, "boom"),
            Diagnostic("C003", Severity.INFO, "meh"),
        ))
        assert len(report) == 2
        assert report.max_severity is Severity.ERROR
        assert report.errors[0].code == "C001"
        assert report.exit_code(strict=True) == 1
        assert report.exit_code(strict=False) == 0

    def test_empty_report(self):
        report = AnalysisReport(())
        assert not report.has_errors
        assert report.max_severity is None
        assert report.exit_code(strict=True) == 0
        assert report.render_text() == "analysis: no findings"

    def test_json_rendering_round_trips(self):
        report = analyze(ConstraintSet([Unreachable("A", "A"),
                                        Latency("A", 2)]))
        payload = json.loads(report.render_json())
        assert payload["format"] == "analysis-report/1"
        assert payload["summary"]["errors"] == 1
        assert payload["diagnostics"][0]["code"] == "C001"

    def test_rule_registry_is_complete(self):
        # C007 and C009 are retired, their codes not reused.
        assert [spec.code for spec in RULES] == [
            "C001", "C002", "C003", "C004", "C005", "C006", "C008", "C010"]

    def test_only_c010_is_advisory(self):
        assert [spec.code for spec in RULES if spec.advisory] == ["C010"]


class TestAnalyzeOrchestration:
    def test_readings_without_prior_rejected(self):
        readings = ReadingSequence.from_reader_sets([["r1"], ["r2"]])
        with pytest.raises(ReadingSequenceError):
            analyze(ConstraintSet(), readings=readings)

    def test_bad_readings_type_rejected(self):
        with pytest.raises(ReadingSequenceError):
            analyze(ConstraintSet(), readings="not readings")

    def test_diagnostics_are_deterministic(self):
        cs = ConstraintSet([Unreachable("B", "B"), Latency("B", 2),
                            Unreachable("A", "A"), Latency("A", 2)])
        first = [str(d) for d in analyze(cs)]
        second = [str(d) for d in analyze(cs)]
        assert first == second
        assert first[0].startswith("C001")
        assert "(A," in first[0]  # sorted by location


class TestPrecheckHook:
    DOOMED = ConstraintSet([Unreachable("A", "A"), Unreachable("A", "B"),
                            Unreachable("B", "A"), Unreachable("B", "B")])
    #: C001 fires for C, and A -> B is forbidden.
    CONTRADICTORY = ConstraintSet([Unreachable("A", "B"),
                                   Unreachable("C", "C"), Latency("C", 2)])

    @pytest.mark.parametrize("precheck", ["off", "warn", "error"])
    def test_every_mode_raises_the_engines_zero_mass_error(self, precheck):
        ls = LSequence([{"A": 0.5, "B": 0.5}] * 2)
        for engine in ("compact", "reference"):
            with pytest.raises(ZeroMassError) as raised:
                build_ct_graph(ls, self.DOOMED,
                               CleaningOptions(precheck=precheck,
                                               engine=engine))
            assert raised.value.failed_at == 1
            assert "pre-check" not in str(raised.value)

    def test_warn_mode_warns(self):
        ls = LSequence([{"A": 1.0}, {"B": 1.0}])
        for precheck in ("warn", "error"):
            with pytest.warns(UserWarning, match="pre-check C001"):
                with pytest.raises(ZeroMassError):
                    build_ct_graph(ls, self.CONTRADICTORY,
                                   CleaningOptions(precheck=precheck))

    def test_no_mode_analyzes_the_readings(self, monkeypatch):
        import repro.analysis

        calls = []
        original = repro.analysis.analyze

        def recording(constraints, *args, **kwargs):
            calls.append((args, kwargs))
            return original(constraints, *args, **kwargs)

        monkeypatch.setattr(repro.analysis, "analyze", recording)
        ls = LSequence([{"A": 0.5, "B": 0.5}] * 2)
        for precheck in ("warn", "error"):
            options = CleaningOptions(precheck=precheck)
            for plan in (None, SharedCleaningPlan(self.DOOMED)):
                with pytest.raises(ZeroMassError):
                    build_ct_graph(ls, self.DOOMED, options, plan=plan)
        # Constraints only: no readings, no prior, no map.
        assert calls == [((), {})] * 4

    def test_batch_and_sequential_builds_warn_alike(self):
        # Both run C001-C004 only: a sequential build warns once per
        # build, a batch once per plan, and no readings rule adds a
        # warning for the doomed object.
        objects = [LSequence([{"A": 1.0}, {"B": 1.0}]),
                   LSequence([{"A": 0.5, "B": 0.5}] * 3)]
        for precheck in ("warn", "error"):
            options = CleaningOptions(precheck=precheck)
            with pytest.warns(UserWarning) as sequential:
                for ls in objects:
                    try:
                        build_ct_graph(ls, self.CONTRADICTORY, options)
                    except ZeroMassError:
                        pass
            with pytest.warns(UserWarning) as batch:
                result = clean_many(objects, self.CONTRADICTORY,
                                    options=options, workers=1)
            assert [o.error_type for o in result] == ["ZeroMassError", None]
            sequential_messages = [str(w.message) for w in sequential
                                   if w.category is UserWarning]
            batch_messages = [str(w.message) for w in batch
                              if w.category is UserWarning]
            assert len(sequential_messages) == 2
            assert batch_messages == sequential_messages[:1]
            assert set(sequential_messages) == set(batch_messages)
            assert batch_messages[0].startswith("pre-check C001")

    def test_error_mode_never_rejects_cleanable_input(self):
        # C001 fires for location C, but the readings never touch C: the
        # pre-check warns and the cleaning still succeeds.
        ls = LSequence([{"A": 0.5, "B": 0.5}] * 2)
        cs = ConstraintSet([Unreachable("C", "C"), Latency("C", 2)])
        with pytest.warns(UserWarning, match="pre-check C001"):
            graph = build_ct_graph(ls, cs, CleaningOptions(precheck="error"))
        assert graph.duration == 2

    def test_off_is_the_default(self):
        assert CleaningOptions().precheck == "off"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ReadingSequenceError):
            CleaningOptions(precheck="maybe")


class TestAnalyzeCLI:
    def test_strict_fixture_with_c001_exits_1(self, tmp_path, capsys):
        fixture = tmp_path / "constraints.json"
        save_constraints(ConstraintSet([Unreachable("l", "l"),
                                        Latency("l", 2)]), fixture)
        code = main(["analyze", "--constraints-file", str(fixture),
                     "--strict"])
        assert code == 1
        out = capsys.readouterr().out
        assert "C001 ERROR" in out

    def test_fixture_without_strict_exits_0(self, tmp_path, capsys):
        fixture = tmp_path / "constraints.json"
        save_constraints(ConstraintSet([Unreachable("l", "l"),
                                        Latency("l", 2)]), fixture)
        assert main(["analyze", "--constraints-file", str(fixture)]) == 0

    def test_json_format(self, tmp_path, capsys):
        fixture = tmp_path / "constraints.json"
        save_constraints(ConstraintSet([Unreachable("l", "l"),
                                        Latency("l", 2)]), fixture)
        code = main(["analyze", "--constraints-file", str(fixture),
                     "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 1

    def test_shipped_dataset_is_clean(self, capsys):
        pytest.importorskip("numpy", exc_type=ImportError)  # dataset generation draws from an rng
        code = main(["analyze", "--dataset", "syn1", "--scale", "tiny",
                     "--strict"])
        assert code == 0

    def test_dataset_with_readings_runs_the_precheck(self, capsys):
        pytest.importorskip("numpy", exc_type=ImportError)  # dataset generation draws from an rng
        code = main(["analyze", "--dataset", "syn1", "--scale", "tiny",
                     "--index", "0", "--strict"])
        assert code == 0
        assert "C006" in capsys.readouterr().out

    def test_index_with_constraints_file_rejected(self, tmp_path):
        fixture = tmp_path / "constraints.json"
        save_constraints(ConstraintSet([Unreachable("l", "m")]), fixture)
        with pytest.raises(SystemExit, match="--index"):
            main(["analyze", "--constraints-file", str(fixture),
                  "--index", "0"])

    def test_advise_without_index_rejected(self, tmp_path):
        fixture = tmp_path / "constraints.json"
        save_constraints(ConstraintSet([Unreachable("l", "m")]), fixture)
        with pytest.raises(SystemExit, match="--advise needs readings"):
            main(["analyze", "--constraints-file", str(fixture),
                  "--advise"])

    def test_dataset_bad_index_rejected(self):
        pytest.importorskip("numpy", exc_type=ImportError)  # dataset generation draws from an rng
        with pytest.raises(SystemExit):
            main(["analyze", "--dataset", "syn1", "--scale", "tiny",
                  "--index", "9999"])


# ----------------------------------------------------------------------
# The exact readings pass against brute force (the analyzer's ground truth).
# ----------------------------------------------------------------------
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
def test_c005_matches_naive_conditioner(instance):
    """C005 fires <=> the naive enumerator finds no valid trajectory, and
    its failed_at is diagnose's first dead timestep."""
    lsequence, constraints, strict = instance
    naive = NaiveConditioner(lsequence, constraints,
                             strict_truncation=strict)
    has_valid = next(iter(naive.valid_trajectories()), None) is not None
    found = analyze(constraints, readings=lsequence,
                    strict_truncation=strict).by_code("C005")
    assert bool(found) == (not has_valid)
    report = diagnose(lsequence, constraints, CleaningOptions(
        truncated_stay_policy="strict" if strict else "lenient"))
    assert (found[0].data["failed_at"] if found else None) == \
        report.failed_at


@settings(max_examples=200, deadline=None)
@given(small_instances())
def test_dead_and_forced_match_naive_conditioner(instance):
    """(tau, l) is dead iff no valid trajectory is at l at tau; a level is
    forced to l iff its support is ambiguous and every valid trajectory
    is at l there."""
    lsequence, constraints, strict = instance
    naive = NaiveConditioner(lsequence, constraints,
                             strict_truncation=strict)
    valid = [trajectory for trajectory, _ in naive.valid_trajectories()]
    advice = advise(lsequence, constraints, strict_truncation=strict)
    if not valid:
        assert advice.zero_mass
        return
    levels = range(lsequence.duration)
    visited = [{trajectory[tau] for trajectory in valid} for tau in levels]
    assert set(advice.dead) == {
        (tau, location) for tau in levels
        for location in lsequence.support(tau)
        if location not in visited[tau]}
    assert set(advice.forced) == {
        (tau, location) for tau in levels for location in visited[tau]
        if len(visited[tau]) == 1 and len(lsequence.support(tau)) > 1}


@settings(max_examples=200, deadline=None)
@given(small_instances())
def test_advice_matches_the_reference_build(instance):
    """advise's per-level widths and edges, and its created counts, are
    those of an engine="reference" flat build; on zero mass it reports
    the reference builder's failed_at."""
    lsequence, constraints, strict = instance
    advice = advise(lsequence, constraints, strict_truncation=strict)
    options = CleaningOptions(
        engine="reference", materialize="flat",
        truncated_stay_policy="strict" if strict else "lenient")
    try:
        graph = build_ct_graph(lsequence, constraints, options)
    except ZeroMassError as error:
        assert advice.zero_mass
        assert advice.failed_at == error.failed_at
        return
    assert not advice.zero_mass
    assert advice.level_nodes == tuple(
        graph.level_size(tau) for tau in range(graph.duration))
    assert advice.level_edges == tuple(map(len, graph.edge_children))
    assert (advice.nodes_created, advice.edges_created) == (
        graph.stats.nodes_created, graph.stats.edges_created)
