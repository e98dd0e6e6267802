"""Unit tests for the compact engine's building blocks: relative-age
departure interning, the keep mask, engine selection, and the transition
cache shared through :class:`SharedCleaningPlan`."""

import pytest

import repro.core.engine as engine_module
from repro.core.algorithm import ENGINES, CleaningOptions, build_ct_graph
from repro.core.constraints import (
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.core.engine import EngineCache, build_ct_graph_compact
from repro.core.lsequence import LSequence
from repro.core.nodes import (
    DepartureFilter,
    absolute_departures,
    departure_keep_mask,
    relative_departures,
)
from repro.errors import ReadingSequenceError, ZeroMassError
from repro.runtime.plan import SharedCleaningPlan

CONSTRAINTS = ConstraintSet([
    Unreachable("A", "C"), Unreachable("C", "A"),
    Latency("B", 3),
    TravelingTime("A", "D", 4), TravelingTime("D", "A", 4),
])

_PHASES = (
    {"A": 0.4, "B": 0.4, "C": 0.2},
    {"B": 0.6, "D": 0.4},
    {"B": 0.5, "C": 0.3, "D": 0.2},
    {"A": 0.5, "B": 0.5},
)


def _instance(duration):
    return LSequence([dict(_PHASES[tau % 4]) for tau in range(duration)])


class TestRelativeDepartures:
    def test_round_trip(self):
        departures = ((3, "A"), (5, "D"))
        relative = relative_departures(departures, 7)
        assert relative == ((4, "A"), (2, "D"))
        assert absolute_departures(relative, 7) == departures

    def test_sort_order_is_preserved_by_the_relative_form(self):
        # Absolute (t, l) ascending == relative (-age, name) ascending:
        # the interned form never has to re-sort what rule 6 sorted.
        departures = ((2, "B"), (2, "D"), (4, "A"))
        relative = relative_departures(departures, 6)
        assert sorted(relative, key=lambda e: (-e[0], e[1])) == list(relative)

    def test_empty(self):
        assert relative_departures((), 9) == ()
        assert absolute_departures((), 9) == ()


class TestDepartureKeepMask:
    def test_no_filter_is_mask_zero(self):
        assert departure_keep_mask(((1, "A"),), "B", 5, CONSTRAINTS,
                                   None) == 0

    def test_mask_matches_the_filter_keep_decision(self):
        lsequence = _instance(12)
        departure_filter = DepartureFilter(lsequence, CONSTRAINTS)
        for tau in range(1, 11):
            for age in (1, 2, 3):
                if age > tau:
                    continue
                relative = ((age, "A"),)
                mask = departure_keep_mask(relative, "B", tau, CONSTRAINTS,
                                           departure_filter)
                expected = departure_filter.keep(tau + 1, tau - age, "A")
                assert bool(mask & 1) == expected, (tau, age)

    def test_new_departure_bit(self):
        lsequence = _instance(12)
        departure_filter = DepartureFilter(lsequence, CONSTRAINTS)
        tau = 4
        # "A" is a TT source; leaving it at tau records (tau, "A") iff the
        # entry would survive to the arrival timestep.
        mask = departure_keep_mask((), "A", tau, CONSTRAINTS,
                                   departure_filter)
        expected = departure_filter.keep(tau + 1, tau, "A")
        assert bool(mask & 1) == expected
        # "B" is not a TT source: no departure is ever recorded for it.
        assert departure_keep_mask((), "B", tau, CONSTRAINTS,
                                   departure_filter) == 0


class TestEngineSelection:
    def test_resolve_explicit(self, monkeypatch):
        # The option names the builder that runs; nothing routes.
        calls = []
        compact = engine_module.build_ct_graph_compact

        def spy(*args, **kwargs):
            calls.append(args[0])
            return compact(*args, **kwargs)

        monkeypatch.setattr(engine_module, "build_ct_graph_compact", spy)
        lsequence = _instance(6)
        build_ct_graph(lsequence, CONSTRAINTS,
                       CleaningOptions(engine="reference"))
        assert calls == []
        build_ct_graph(lsequence, CONSTRAINTS,
                       CleaningOptions(engine="compact"))
        assert calls == [lsequence]

    def test_compact_is_the_default_engine(self):
        assert ENGINES == ("reference", "compact")
        assert CleaningOptions().engine == "compact"
        with pytest.raises(ReadingSequenceError):
            CleaningOptions(engine="auto")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ReadingSequenceError):
            CleaningOptions(engine="turbo")

    def test_auto_gives_the_reference_answer(self):
        # The default options give the reference distribution, short
        # objects and long (flat-form equality; enumerating paths would
        # be exponential at the longer duration).
        for duration in (6, 53):
            lsequence = _instance(duration)
            default = build_ct_graph(lsequence, CONSTRAINTS)
            reference = build_ct_graph(lsequence, CONSTRAINTS,
                                       CleaningOptions(engine="reference"))
            default_state = default.__getstate__()
            reference_state = reference.__getstate__()
            for key in ("levels", "edges", "sources"):
                assert default_state[key] == reference_state[key], key


class TestEngineCache:
    def test_interning_is_stable(self):
        cache = EngineCache(CONSTRAINTS)
        a = cache.location_id("A")
        assert cache.location_id("A") == a
        sid = cache.state_id((a, None, ()))
        assert cache.state_id((a, None, ())) == sid
        assert cache.support_id((a,)) == cache.support_id((a,))
        # Support ids are order-sensitive on purpose: candidate order is
        # edge insertion order is float-summation order.
        b = cache.location_id("B")
        assert cache.support_id((a, b)) != cache.support_id((b, a))

    def test_transition_rows_accumulate(self):
        cache = EngineCache(CONSTRAINTS)
        assert cache.cached_transitions == 0
        build_ct_graph_compact(_instance(20), CONSTRAINTS,
                               CleaningOptions(engine="compact"),
                               plan=None)
        fresh = EngineCache(CONSTRAINTS)
        assert fresh.cached_transitions == 0

    def test_plan_shares_the_cache_across_objects(self):
        plan = SharedCleaningPlan(CONSTRAINTS)
        cache = plan.engine_cache()
        assert cache is plan.engine_cache(), "cache must be created once"
        assert cache.cached_transitions == 0
        build_ct_graph(_instance(60), CONSTRAINTS,
                       CleaningOptions(engine="compact"), plan=plan)
        warmed = cache.cached_transitions
        assert warmed > 0
        assert cache.interned_states > 0
        # A second object of a different duration reuses the rows.
        build_ct_graph(_instance(61), CONSTRAINTS,
                       CleaningOptions(engine="compact"), plan=plan)
        assert cache.cached_transitions >= warmed

    def test_foreign_plan_rejected(self):
        plan = SharedCleaningPlan(ConstraintSet([Unreachable("X", "Y")]))
        with pytest.raises(ReadingSequenceError):
            build_ct_graph_compact(_instance(8), CONSTRAINTS,
                                   CleaningOptions(engine="compact"),
                                   plan=plan)


class TestCompactEngineErrors:
    def test_zero_mass_at_source(self):
        constraints = ConstraintSet([Latency("A", 3)])
        poison = LSequence([{"A": 1.0}])
        options = CleaningOptions("strict", engine="compact")
        with pytest.raises(ZeroMassError):
            build_ct_graph_compact(poison, constraints, options)

    def test_zero_mass_mid_sequence(self):
        constraints = ConstraintSet([Unreachable("A", "C")])
        poison = LSequence([{"A": 1.0}, {"C": 1.0}])
        with pytest.raises(ZeroMassError):
            build_ct_graph_compact(poison, constraints,
                                   CleaningOptions(engine="compact"))


class TestTimingStats:
    def test_both_engines_fill_phase_timings(self):
        lsequence = _instance(30)
        for engine in ("reference", "compact"):
            graph = build_ct_graph(lsequence, CONSTRAINTS,
                                   CleaningOptions(engine=engine))
            assert graph.stats.forward_seconds > 0.0, engine
            assert graph.stats.backward_seconds > 0.0, engine

    def test_timings_do_not_break_stats_equality(self):
        lsequence = _instance(30)
        options = CleaningOptions(engine="compact")
        first = build_ct_graph(lsequence, CONSTRAINTS, options)
        second = build_ct_graph(lsequence, CONSTRAINTS, options)
        assert first.stats == second.stats
        assert first.stats.forward_seconds != 0.0
