"""The unbounded streaming cleaner (``window=None``) and the frontier step.

Online frontier, filtered estimates and exact whole-stream finalize of a
:class:`~repro.streaming.StreamingCleaner` that never evicts, plus the
:func:`~repro.core.incremental.advance_frontier` recursion step.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algorithm import CleaningOptions, build_ct_graph
from repro.core.constraints import (
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.core.incremental import advance_frontier
from repro.core.lsequence import LSequence
from repro.errors import InconsistentReadingsError, ReadingSequenceError
from repro.streaming import StreamingCleaner


def unbounded(constraints, options=CleaningOptions(), **kwargs):
    """The cleaner under test: a streaming cleaner that never evicts."""
    return StreamingCleaner(constraints, window=None, options=options,
                            **kwargs)


@pytest.fixture
def constraints():
    return ConstraintSet([Unreachable("A", "C"), Unreachable("C", "A"),
                          Latency("B", 2)])


class TestExtend:
    def test_empty_distribution_rejected(self, constraints):
        cleaner = unbounded(constraints)
        with pytest.raises(ReadingSequenceError):
            cleaner.extend({})

    def test_duration_tracks_ingestion(self, constraints):
        cleaner = unbounded(constraints)
        assert cleaner.duration == 0
        cleaner.extend({"A": 1.0})
        cleaner.extend({"A": 0.5, "B": 0.5})
        assert cleaner.duration == 2

    def test_inconsistent_stream_raises_and_preserves_state(self, constraints):
        cleaner = unbounded(constraints)
        cleaner.extend({"A": 1.0})
        with pytest.raises(InconsistentReadingsError):
            cleaner.extend({"C": 1.0})     # A -> C is forbidden
        # State unchanged: the cleaner can continue with a sane reading.
        assert cleaner.duration == 1
        cleaner.extend({"B": 1.0})
        assert cleaner.duration == 2

    def test_failed_first_extension_leaves_cleaner_pristine(self, constraints):
        # At tau=0 the frontier cannot be empty (source_states yields one
        # node state per positive-mass location), so the first extension
        # can only fail as a ReadingSequenceError — zero/empty rows — and
        # must leave the cleaner exactly as constructed.
        cleaner = unbounded(constraints)
        with pytest.raises(ReadingSequenceError):
            cleaner.extend({"A": 0.0})
        assert cleaner.duration == 0
        assert cleaner.frontier_size() == 0
        with pytest.raises(ReadingSequenceError):
            cleaner.filtered_distribution()
        with pytest.raises(ReadingSequenceError):
            cleaner.finalize()
        # ...and still fully usable afterwards.
        cleaner.extend({"A": 1.0})
        assert cleaner.duration == 1

    def test_failed_extension_preserves_every_observable(self, constraints):
        # The docstring's "state is unchanged" promise, pinned across all
        # four observables — duration, frontier, filtered distribution,
        # finalize — for a failure deep in the stream.
        cleaner = unbounded(constraints)
        for row in ({"A": 1.0}, {"A": 0.5, "B": 0.5}, {"A": 1.0}):
            cleaner.extend(row)
        duration = cleaner.duration
        frontier_size = cleaner.frontier_size()
        filtered = cleaner.filtered_distribution()
        baseline = cleaner.finalize()

        with pytest.raises(InconsistentReadingsError):
            cleaner.extend({"C": 1.0})     # the frontier sits at A; A -> C

        assert cleaner.duration == duration
        assert cleaner.frontier_size() == frontier_size
        assert cleaner.filtered_distribution() == filtered
        after = cleaner.finalize()
        assert list(after.paths()) == list(baseline.paths())
        # The stream continues as if the bad reading never arrived.
        cleaner.extend({"B": 0.5, "D": 0.5})
        assert cleaner.duration == duration + 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf"), -0.5])
    def test_malformed_probability_rejected(self, constraints, bad):
        cleaner = unbounded(constraints)
        cleaner.extend({"A": 1.0})
        with pytest.raises(ReadingSequenceError, match="finite and "
                                                       "non-negative"):
            cleaner.extend({"A": 0.5, "B": bad})
        # The failed row leaves the stream untouched.
        assert cleaner.duration == 1
        cleaner.extend({"A": 0.5, "B": 0.5})
        assert cleaner.duration == 2

    def test_numeric_string_probability_is_coerced(self, constraints):
        # Regression: the old extend() validated float(p) but filtered on
        # the raw value, so a numeric string passed validation and then
        # crashed with a bare TypeError in the `>` comparison.
        cleaner = unbounded(constraints)
        cleaner.extend({"A": "0.5", "B": 0.5})
        assert cleaner.filtered_distribution() == \
            {"A": pytest.approx(0.5), "B": pytest.approx(0.5)}

    def test_non_numeric_probability_is_a_typed_error(self, constraints):
        cleaner = unbounded(constraints)
        with pytest.raises(ReadingSequenceError,
                           match="does not coerce to a float"):
            cleaner.extend({"A": "half"})
        with pytest.raises(ReadingSequenceError,
                           match="does not coerce to a float"):
            cleaner.extend({"A": None})
        assert cleaner.duration == 0

    def test_extend_reading_needs_prior(self, constraints):
        cleaner = unbounded(constraints)
        with pytest.raises(ReadingSequenceError):
            cleaner.extend_reading({"r1"})

    def test_extend_reading_via_prior(self, constraints):
        class FakePrior:
            def distribution(self, readers):
                return {"A": 1.0} if readers else {"A": 0.5, "B": 0.5}

        cleaner = unbounded(constraints, prior=FakePrior())
        cleaner.extend_reading({"r"})
        cleaner.extend_reading(set())
        assert cleaner.duration == 2
        assert set(cleaner.filtered_distribution()) == {"A", "B"}


class TestFilteredDistribution:
    def test_requires_data(self, constraints):
        with pytest.raises(ReadingSequenceError):
            unbounded(constraints).filtered_distribution()

    def test_sums_to_one(self, constraints):
        cleaner = unbounded(constraints)
        for row in ({"A": 0.5, "B": 0.5}, {"B": 0.7, "C": 0.3},
                    {"B": 0.5, "C": 0.5}):
            cleaner.extend(row)
            assert math.fsum(cleaner.filtered_distribution().values()) \
                == pytest.approx(1.0)

    def test_filtering_respects_constraints(self, constraints):
        cleaner = unbounded(constraints)
        cleaner.extend({"A": 1.0})
        cleaner.extend({"B": 0.5, "C": 0.5})
        # A -> C is forbidden, so the filtered mass is all on B.
        assert cleaner.filtered_distribution() == {"B": pytest.approx(1.0)}

    def test_filtered_equals_prefix_conditioning(self, constraints):
        """Filtering == batch-conditioning the prefix, marginal at the end."""
        rows = [{"A": 0.5, "B": 0.5}, {"B": 0.6, "C": 0.4},
                {"B": 0.5, "C": 0.5}, {"A": 0.3, "B": 0.7}]
        cleaner = unbounded(constraints)
        for tau, row in enumerate(rows):
            cleaner.extend(row)
            prefix_graph = build_ct_graph(LSequence(rows[:tau + 1]),
                                          constraints)
            expected = prefix_graph.location_marginal(tau)
            got = cleaner.filtered_distribution()
            assert set(got) == set(expected)
            for location, probability in expected.items():
                assert got[location] == pytest.approx(probability)

    def test_long_stream_does_not_underflow(self, constraints):
        cleaner = unbounded(constraints)
        for _ in range(800):
            cleaner.extend({"A": 0.4, "B": 0.4, "C": 0.2})
        distribution = cleaner.filtered_distribution()
        assert math.fsum(distribution.values()) == pytest.approx(1.0)
        assert cleaner.frontier_size() >= 1


class TestFinalize:
    def test_requires_data(self, constraints):
        with pytest.raises(ReadingSequenceError):
            unbounded(constraints).finalize()

    def test_finalize_equals_batch(self, constraints):
        rows = [{"A": 0.5, "B": 0.5}, {"B": 0.6, "C": 0.4},
                {"B": 0.5, "C": 0.5}]
        cleaner = unbounded(constraints)
        for row in rows:
            cleaner.extend(row)
        streamed = cleaner.finalize()
        batch = build_ct_graph(LSequence(rows), constraints)
        assert dict(streamed.paths()) == pytest.approx(dict(batch.paths()))

    def test_finalize_then_continue(self, constraints):
        cleaner = unbounded(constraints)
        cleaner.extend({"A": 1.0})
        first = cleaner.finalize()
        assert first.duration == 1
        cleaner.extend({"A": 0.5, "B": 0.5})
        second = cleaner.finalize()
        assert second.duration == 2
        assert first.duration == 1    # earlier result untouched


class TestFinalizeMaterialize:
    """The corrected finalize() contract: all three materialize modes."""

    rows = ({"A": 0.5, "B": 0.5}, {"B": 0.6, "C": 0.4}, {"B": 1.0})

    def _fed(self, constraints, options):
        cleaner = unbounded(constraints, options)
        for row in self.rows:
            cleaner.extend(row)
        return cleaner

    def test_nodes_mode_returns_ctgraph(self, constraints):
        from repro.core.ctgraph import CTGraph

        cleaner = self._fed(constraints, CleaningOptions(materialize="nodes"))
        assert isinstance(cleaner.finalize(), CTGraph)

    def test_flat_mode_returns_flatgraph(self, constraints):
        from repro.core.flatgraph import FlatCTGraph
        from repro.queries.session import QuerySession

        cleaner = self._fed(constraints, CleaningOptions(materialize="flat"))
        graph = cleaner.finalize()
        assert isinstance(graph, FlatCTGraph)
        batch = build_ct_graph(LSequence(list(self.rows)), constraints)
        assert QuerySession(graph).location_marginal(2) == \
            pytest.approx(batch.location_marginal(2))

    def test_store_mode_returns_mapped_view(self, constraints, tmp_path):
        from repro.store.format import MappedCTGraph

        out = tmp_path / "g.ctg"
        cleaner = self._fed(constraints, CleaningOptions(output=str(out)))
        graph = cleaner.finalize()
        assert isinstance(graph, MappedCTGraph)
        assert out.exists()
        graph.close()

    def test_store_mode_refuses_silent_rewrite(self, constraints, tmp_path):
        out = tmp_path / "g.ctg"
        cleaner = self._fed(constraints, CleaningOptions(output=str(out)))
        cleaner.finalize().close()
        stamp = out.read_bytes()
        with pytest.raises(ReadingSequenceError, match="already wrote"):
            cleaner.finalize()
        assert out.read_bytes() == stamp    # the first result is intact

    def test_explicit_output_gives_fresh_file(self, constraints, tmp_path):
        from repro.store.format import MappedCTGraph

        out = tmp_path / "g.ctg"
        cleaner = self._fed(constraints, CleaningOptions(output=str(out)))
        cleaner.finalize().close()
        second = tmp_path / "g2.ctg"
        graph = cleaner.finalize(output=str(second))
        assert isinstance(graph, MappedCTGraph)
        assert second.exists()
        graph.close()
        # The explicit path never consumes the configured one again.
        third = tmp_path / "g3.ctg"
        cleaner.finalize(output=str(third)).close()
        assert third.exists()

    def test_explicit_output_works_with_auto_options(self, constraints,
                                                     tmp_path):
        from repro.store.format import MappedCTGraph

        cleaner = self._fed(constraints, CleaningOptions())
        out = tmp_path / "g.ctg"
        graph = cleaner.finalize(output=str(out))
        assert isinstance(graph, MappedCTGraph)
        graph.close()
        # ...and the cleaner still finalizes in-memory afterwards.
        from repro.core.ctgraph import CTGraph
        assert isinstance(cleaner.finalize(), CTGraph)

    def test_explicit_output_rejects_non_store_materialize(self, constraints):
        cleaner = self._fed(constraints, CleaningOptions(materialize="flat"))
        with pytest.raises(ReadingSequenceError, match="materialize"):
            cleaner.finalize(output="anywhere.ctg")


class TestAdvanceFrontierStep:
    """Pins the recursion step's micro-optimisations bit-for-bit.

    ``advance_frontier`` interns successor tuples against the *input*
    frontier (so long streams share state tuples across levels instead of
    holding equal copies) and skips the rescale rebuild when the peak is
    exactly 1.0 (division by 1.0 is the float identity).  Both are pure
    optimisations: these tests pin the observable contract — identity of
    carried-over keys, and exact equality of the returned masses."""

    def test_carried_states_reuse_input_frontier_tuples(self):
        constraints = ConstraintSet([Unreachable("A", "C")])
        row = {"A": 0.5, "B": 0.5}
        frontier = advance_frontier({}, row, 0, constraints)
        for tau in (1, 2, 3):
            advanced = advance_frontier(frontier, row, tau, constraints)
            previous = {state: state for state in frontier}
            carried = [state for state in advanced if state in previous]
            # Without latency/TT state, staying put maps a state to an
            # equal tuple — and the interning must return the input
            # frontier's exact object, not a fresh equal one.
            assert carried
            for state in carried:
                assert state is previous[state]
            frontier = advanced

    def test_peak_of_exactly_one_keeps_masses_bit_identical(self):
        walls = ConstraintSet([Unreachable("A", "B"), Unreachable("B", "A")])
        state_a = ("A", None, ())
        state_b = ("B", None, ())
        # The walls keep the two successor sets disjoint; 2.0 * 0.5 puts
        # the peak at exactly 1.0, so the rescale is skipped — and the
        # off-peak 0.125 must keep its exact bits, indistinguishable
        # from dividing by 1.0.
        advanced = advance_frontier({state_a: 2.0, state_b: 0.25},
                                    {"A": 0.5, "B": 0.5}, 1, walls)
        assert advanced == {state_a: 1.0, state_b: 0.125}

    def test_rescale_still_engages_off_peak(self):
        constraints = ConstraintSet([])
        state_a = ("A", None, ())
        advanced = advance_frontier({state_a: 1.0},
                                    {"A": 0.25, "B": 0.75}, 1, constraints)
        assert max(advanced.values()) == 1.0
        assert advanced[state_a] == 0.25 / 0.75


class TestLSequenceCopy:
    def test_lsequence_is_an_independent_copy(self, constraints):
        cleaner = unbounded(constraints)
        cleaner.extend({"A": 0.5, "B": 0.5})
        cleaner.extend({"B": 1.0})
        before = cleaner.filtered_distribution()
        copy = cleaner.lsequence()
        copy.candidates(0)["A"] = 123.0    # vandalise the copy
        copy.candidates(1).clear()
        assert cleaner.filtered_distribution() == before
        fresh = cleaner.lsequence()
        assert fresh.candidates(0)["A"] == pytest.approx(0.5)
        assert fresh.candidates(1) == {"B": pytest.approx(1.0)}


# ----------------------------------------------------------------------
# property test: streaming == batch on random instances
# ----------------------------------------------------------------------

locations = st.sampled_from("ABC")


@st.composite
def streams(draw):
    duration = draw(st.integers(min_value=1, max_value=5))
    rows = []
    for _ in range(duration):
        support = draw(st.lists(locations, min_size=1, max_size=3, unique=True))
        weights = [draw(st.floats(min_value=0.1, max_value=1.0))
                   for _ in support]
        total = sum(weights)
        rows.append({l: w / total for l, w in zip(support, weights)})
    constraints = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(["du", "lt", "tt"]))
        if kind == "du":
            constraints.append(Unreachable(draw(locations), draw(locations)))
        elif kind == "lt":
            constraints.append(Latency(draw(locations), draw(st.integers(2, 3))))
        else:
            a = draw(locations)
            b = draw(locations.filter(lambda x: x != a))
            constraints.append(TravelingTime(a, b, draw(st.integers(2, 3))))
    return rows, ConstraintSet(constraints)


@settings(max_examples=200, deadline=None)
@given(streams())
def test_streaming_matches_batch(stream):
    rows, constraints = stream
    cleaner = unbounded(constraints)
    failed_online = False
    try:
        for row in rows:
            cleaner.extend(row)
    except InconsistentReadingsError:
        failed_online = True
    try:
        batch = build_ct_graph(LSequence(rows), constraints)
    except InconsistentReadingsError:
        batch = None
    if failed_online:
        # The online cleaner fails as soon as *some prefix* has no valid
        # continuation; the batch run on the full sequence must fail too.
        assert batch is None
        return
    if batch is None:
        return  # prefix stayed alive but the whole sequence is inconsistent
    streamed = cleaner.finalize()
    expected = dict(batch.paths())
    got = dict(streamed.paths())
    assert set(got) == set(expected)
    for trajectory, probability in expected.items():
        assert got[trajectory] == pytest.approx(probability, abs=1e-9)
