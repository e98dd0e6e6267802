"""Tests for the streaming cleaner (bounded and unbounded) and its checkpoints."""

import math
import os
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import incremental, nodes
from repro.core.algorithm import CleaningOptions, build_ct_graph
from repro.core.constraints import (
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.core.engine import EngineCache
from repro.core.incremental import (
    advance_frontier,
    coerce_candidate_row,
    frontier_to_dict,
)
from repro.core.lsequence import LSequence
from repro.core.naive import NaiveConditioner
from repro.core.nodes import binding_ages
from repro.errors import (
    InconsistentReadingsError,
    ReadingSequenceError,
    StoreChecksumError,
    StoreFormatError,
    ZeroMassError,
)
from repro.runtime.sessions import StreamSessionManager
from repro.store.format import (
    read_stream_checkpoint,
    write_stream_checkpoint,
)
from repro.streaming import StreamingCleaner

#: The stream backends: ``python`` is the oracle recursion, ``auto`` the
#: compact engine's memoised rows (``numpy`` runs the same rows).
BACKENDS = ("python", "auto")


@pytest.fixture
def constraints():
    return ConstraintSet([Unreachable("A", "C"), Unreachable("C", "A"),
                          Latency("B", 2), TravelingTime("B", "D", 3)])


# ----------------------------------------------------------------------
# the rfid-ctg/ckpt@1 codec
# ----------------------------------------------------------------------

class TestCheckpointCodec:
    meta = {"window": 4, "base": 2, "duration": 4, "output_consumed": False,
            "options": {}, "constraints": []}
    names = ["A", "B", "corridor"]
    rows = [[(0, 0.25), (1, 0.75)], [(2, 1.0)]]
    frontiers = [
        [(0, None, ((3, 1),), 0.5), (1, 2, (), 1.0)],
        [(2, 0, ((5, 0), (7, 1)), 0.125)],
    ]

    def test_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "s.ckpt"
        written = write_stream_checkpoint(
            path, meta=self.meta, location_names=self.names,
            rows=self.rows, frontiers=self.frontiers)
        assert written == path.stat().st_size
        payload = read_stream_checkpoint(path)
        assert payload.meta == self.meta
        assert payload.location_names == tuple(self.names)
        assert payload.rows == tuple(tuple(r) for r in self.rows)
        assert payload.frontiers == tuple(tuple(f) for f in self.frontiers)

    def test_atomic_publish_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "s.ckpt"
        write_stream_checkpoint(path, meta=self.meta,
                                location_names=self.names,
                                rows=self.rows, frontiers=self.frontiers)
        write_stream_checkpoint(path, meta=self.meta,
                                location_names=self.names,
                                rows=self.rows, frontiers=self.frontiers)
        assert [p.name for p in tmp_path.iterdir()] == ["s.ckpt"]

    def test_corruption_is_detected(self, tmp_path):
        path = tmp_path / "s.ckpt"
        write_stream_checkpoint(path, meta=self.meta,
                                location_names=self.names,
                                rows=self.rows, frontiers=self.frontiers)
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(StoreChecksumError, match="CRC-32"):
            read_stream_checkpoint(path)

    def test_truncation_is_a_format_error(self, tmp_path):
        path = tmp_path / "s.ckpt"
        write_stream_checkpoint(path, meta=self.meta,
                                location_names=self.names,
                                rows=self.rows, frontiers=self.frontiers)
        path.write_bytes(path.read_bytes()[:25])
        with pytest.raises(StoreFormatError, match="truncated"):
            read_stream_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "s.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 40)
        with pytest.raises(StoreFormatError, match="bad magic"):
            read_stream_checkpoint(path)

    def test_out_of_range_location_id_rejected_on_write(self, tmp_path):
        with pytest.raises(StoreFormatError, match="outside the string"):
            write_stream_checkpoint(
                tmp_path / "s.ckpt", meta={}, location_names=["A"],
                rows=[[(7, 1.0)]], frontiers=[[]])

    def test_level_count_mismatch_rejected_on_write(self, tmp_path):
        with pytest.raises(StoreFormatError, match="disagree"):
            write_stream_checkpoint(
                tmp_path / "s.ckpt", meta={}, location_names=["A"],
                rows=[[(0, 1.0)]], frontiers=[])


# ----------------------------------------------------------------------
# StreamingCleaner semantics
# ----------------------------------------------------------------------

class TestStreamingCleaner:
    def test_window_must_be_positive(self, constraints):
        with pytest.raises(ReadingSequenceError, match="positive integer"):
            StreamingCleaner(constraints, window=0)

    def test_memory_is_bounded_by_window(self, constraints):
        cleaner = StreamingCleaner(constraints, window=8)
        for _ in range(500):
            cleaner.extend({"A": 0.4, "B": 0.4, "C": 0.2})
        assert cleaner.duration == 500
        assert cleaner.retained_duration == 8
        assert cleaner.base == 492
        assert math.fsum(cleaner.filtered_distribution().values()) == \
            pytest.approx(1.0)

    def test_filtered_bit_equal_to_unbounded_cleaner(self, constraints):
        rows = [{"A": 0.5, "B": 0.5}, {"B": 0.6, "D": 0.4},
                {"B": 0.5, "D": 0.5}, {"A": 0.3, "B": 0.7},
                {"B": 1.0}, {"B": 0.2, "C": 0.8}]
        bounded = StreamingCleaner(constraints, window=2)
        unbounded = StreamingCleaner(constraints, window=None)
        for row in rows:
            bounded.extend(row)
            unbounded.extend(row)
            # == on the dicts: same keys, same order, same float bits.
            assert bounded.filtered_distribution() == \
                unbounded.filtered_distribution()

    def test_inconsistent_reading_preserves_state(self, constraints):
        cleaner = StreamingCleaner(constraints, window=4)
        cleaner.extend({"A": 1.0})
        with pytest.raises(InconsistentReadingsError):
            cleaner.extend({"C": 1.0})
        assert cleaner.duration == 1
        cleaner.extend({"B": 1.0})
        assert cleaner.duration == 2

    def test_finalize_before_eviction_equals_batch(self, constraints):
        rows = [{"A": 0.5, "B": 0.5}, {"B": 0.6, "C": 0.4}, {"B": 1.0}]
        cleaner = StreamingCleaner(constraints, window=10)
        for row in rows:
            cleaner.extend(row)
        batch = build_ct_graph(LSequence(rows), constraints)
        assert dict(cleaner.finalize().paths()) == \
            pytest.approx(dict(batch.paths()))

    def test_window_finalize_matches_full_graph_marginals(self, constraints):
        rows = [{"A": 0.5, "B": 0.5}, {"B": 0.6, "D": 0.4},
                {"B": 0.5, "D": 0.5}, {"A": 0.3, "B": 0.7},
                {"A": 0.5, "B": 0.5}, {"B": 0.2, "C": 0.8}]
        cleaner = StreamingCleaner(constraints, window=3)
        for row in rows:
            cleaner.extend(row)
        assert cleaner.base == 3
        window_graph = cleaner.finalize()
        full_graph = build_ct_graph(LSequence(rows), constraints)
        for relative in range(cleaner.retained_duration):
            expected = full_graph.location_marginal(cleaner.base + relative)
            got = window_graph.location_marginal(relative)
            assert set(got) == set(expected)
            for location, probability in expected.items():
                assert got[location] == pytest.approx(probability)

    def test_window_finalize_materialize_modes(self, constraints, tmp_path):
        from repro.core.ctgraph import CTGraph
        from repro.core.flatgraph import FlatCTGraph
        from repro.store.format import MappedCTGraph

        rows = [{"A": 0.5, "B": 0.5}, {"B": 1.0}, {"B": 0.5, "D": 0.5},
                {"A": 0.4, "B": 0.6}]
        def fed(options):
            cleaner = StreamingCleaner(constraints, window=2,
                                       options=options)
            for row in rows:
                cleaner.extend(row)
            assert cleaner.base > 0    # the window path, not the delegate
            return cleaner

        from repro.queries.session import QuerySession

        nodes_graph = fed(CleaningOptions()).finalize()
        assert isinstance(nodes_graph, CTGraph)
        flat = fed(CleaningOptions(materialize="flat")).finalize()
        assert isinstance(flat, FlatCTGraph)
        out = tmp_path / "w.ctg"
        cleaner = fed(CleaningOptions(output=str(out)))
        mapped = cleaner.finalize()
        assert isinstance(mapped, MappedCTGraph)
        assert QuerySession(mapped).location_marginal(1) == \
            pytest.approx(nodes_graph.location_marginal(1))
        assert QuerySession(flat).location_marginal(1) == \
            pytest.approx(nodes_graph.location_marginal(1))
        mapped.close()
        with pytest.raises(ReadingSequenceError, match="already wrote"):
            cleaner.finalize()

    def test_lsequence_covers_retained_window_and_is_a_copy(self,
                                                           constraints):
        cleaner = StreamingCleaner(constraints, window=2)
        for row in ({"A": 1.0}, {"A": 0.5, "B": 0.5}, {"B": 1.0}):
            cleaner.extend(row)
        before = cleaner.filtered_distribution()
        copy = cleaner.lsequence()
        assert copy.duration == 2    # the retained window only
        copy.candidates(0).clear()
        copy.candidates(1)["Z"] = 1.0
        assert cleaner.filtered_distribution() == before
        assert cleaner.lsequence().candidates(1) == {"B": pytest.approx(1.0)}


class TestCheckpointResume:
    def test_resume_is_bit_identical(self, constraints, tmp_path):
        rows = [{"A": 0.5, "B": 0.5}, {"B": 0.6, "D": 0.4},
                {"B": 0.5, "D": 0.5}, {"A": 0.3, "B": 0.7},
                {"B": 1.0}, {"B": 0.2, "C": 0.8}]
        uninterrupted = StreamingCleaner(constraints, window=3)
        killed = StreamingCleaner(constraints, window=3)
        for row in rows[:4]:
            uninterrupted.extend(row)
            killed.extend(row)
        path = tmp_path / "s.ckpt"
        killed.checkpoint(path)
        del killed    # the process dies here
        resumed = StreamingCleaner.resume(path)
        assert resumed.duration == 4
        assert resumed.base == uninterrupted.base
        for row in rows[4:]:
            uninterrupted.extend(row)
            resumed.extend(row)
        assert resumed.filtered_distribution() == \
            uninterrupted.filtered_distribution()
        graph_a = uninterrupted.finalize()
        graph_b = resumed.finalize()
        for relative in range(uninterrupted.retained_duration):
            assert graph_a.location_marginal(relative) == \
                graph_b.location_marginal(relative)

    def test_checkpoint_restores_options_and_constraints(self, constraints,
                                                         tmp_path):
        options = CleaningOptions(truncated_stay_policy="strict",
                                  materialize="flat")
        cleaner = StreamingCleaner(constraints, window=5, options=options)
        cleaner.extend({"A": 1.0})
        path = tmp_path / "s.ckpt"
        cleaner.checkpoint(path)
        resumed = StreamingCleaner.resume(path)
        assert resumed.constraints == constraints
        assert resumed.options == options
        assert resumed.window == 5

    def test_extra_meta_rides_along_but_cannot_collide(self, constraints,
                                                       tmp_path):
        cleaner = StreamingCleaner(constraints, window=2)
        cleaner.extend({"A": 1.0})
        path = tmp_path / "s.ckpt"
        cleaner.checkpoint(path, extra_meta={"object": "tag-7"})
        assert read_stream_checkpoint(path).meta["object"] == "tag-7"
        with pytest.raises(ReadingSequenceError, match="collide"):
            cleaner.checkpoint(path, extra_meta={"window": 9})

    def test_malformed_meta_is_a_format_error(self, constraints, tmp_path):
        path = tmp_path / "s.ckpt"
        write_stream_checkpoint(path, meta={"nonsense": True},
                                location_names=[], rows=[], frontiers=[])
        with pytest.raises(StoreFormatError, match="missing or malformed"):
            StreamingCleaner.resume(path)

    @pytest.mark.parametrize("overrides", [
        {"window": 0},
        {"window": "3"},
        {"window": True},
        {"window": 2},                       # fewer than the 3 levels
        {"window": None, "base": 1, "duration": 4},
        {"base": -1, "duration": 2},
        {"base": True, "duration": 4},
        {"base": 0.0},
        {"base": 4},                         # base > duration
        {"duration": -3},
        {"duration": "3"},
        {"duration": False},
        {"output_consumed": "yes"},
        {"output_consumed": 1},
        {"options": {"engine": "warp"}},
        {"options": {"no_such_option": 1}},
        {"options": ["engine"]},
        {"constraints": [{"kind": "teleport"}]},
        {"constraints": 5},
        # base == duration > 0 with no stored level: no live frontier
        {"base": 3, "duration": 3, "rows": [], "frontiers": []},
    ], ids=repr)
    def test_resume_rejects_each_malformed_meta_field(self, constraints,
                                                      tmp_path, overrides):
        cleaner = StreamingCleaner(constraints, window=3)
        for row in ({"A": 1.0}, {"A": 0.5, "B": 0.5}, {"B": 1.0}):
            cleaner.extend(row)
        path = tmp_path / "s.ckpt"
        cleaner.checkpoint(path)
        payload = read_stream_checkpoint(path)
        overrides = dict(overrides)
        levels = {key: overrides.pop(key, getattr(payload, key))
                  for key in ("rows", "frontiers")}
        write_stream_checkpoint(path, meta=dict(payload.meta, **overrides),
                                location_names=payload.location_names,
                                **levels)
        with pytest.raises(StoreFormatError, match=re.escape(str(path))):
            StreamingCleaner.resume(path)

    def test_resume_maps_the_retired_auto_engine(self, constraints,
                                                 tmp_path):
        # Checkpoints written while "auto" was an engine still resume.
        cleaner = StreamingCleaner(constraints, window=3)
        for row in ({"A": 1.0}, {"A": 0.5, "B": 0.5}, {"B": 1.0}):
            cleaner.extend(row)
        path = tmp_path / "s.ckpt"
        cleaner.checkpoint(path)
        payload = read_stream_checkpoint(path)
        meta = dict(payload.meta,
                    options=dict(payload.meta["options"], engine="auto"))
        write_stream_checkpoint(path, meta=meta,
                                location_names=payload.location_names,
                                rows=payload.rows,
                                frontiers=payload.frontiers)
        resumed = StreamingCleaner.resume(path)
        assert resumed.options.engine == "compact"
        assert resumed.finalize().to_flat() == cleaner.finalize().to_flat()

    def test_unbounded_checkpoint_keeps_only_the_live_frontier(
            self, constraints, tmp_path):
        rows = [{"A": 0.5, "B": 0.5}, {"B": 0.6, "D": 0.4},
                {"B": 0.5, "D": 0.5}, {"A": 0.3, "B": 0.7}]
        uninterrupted = StreamingCleaner(constraints, window=None)
        killed = StreamingCleaner(constraints, window=None)
        for row in rows[:3]:
            uninterrupted.extend(row)
            killed.extend(row)
        path = tmp_path / "s.ckpt"
        killed.checkpoint(path)
        payload = read_stream_checkpoint(path)
        assert payload.meta["window"] is None
        assert len(payload.rows) == 3
        assert [bool(states) for states in payload.frontiers] == \
            [False, False, True]
        resumed = StreamingCleaner.resume(path)
        assert resumed.window is None
        for row in rows[3:]:
            uninterrupted.extend(row)
            resumed.extend(row)
        assert resumed.filtered_distribution() == \
            uninterrupted.filtered_distribution()
        assert resumed.finalize().to_flat() == \
            uninterrupted.finalize().to_flat()
        # A windowed session stores its entry frontier on the first
        # level, which the unbounded layout leaves empty, so that layout
        # read as windowed is a damaged file.
        write_stream_checkpoint(path, meta=dict(payload.meta, window=3),
                                location_names=payload.location_names,
                                rows=payload.rows,
                                frontiers=payload.frontiers)
        with pytest.raises(StoreFormatError, match="inconsistent"):
            StreamingCleaner.resume(path)


class TestLeanCheckpoint:
    """A windowed checkpoint stores the retained rows and the entry
    frontier only; resume replays the rows after it."""

    ROWS = [{"A": 0.5, "B": 0.5}, {"B": 0.6, "D": 0.4},
            {"B": 0.5, "D": 0.5}, {"A": 0.3, "B": 0.7},
            {"B": 1.0}, {"B": 0.2, "C": 0.8}, {"B": 0.5, "D": 0.5}]

    @staticmethod
    def fed(constraints, rows, backend="python"):
        cleaner = StreamingCleaner(constraints, window=3,
                                   options=CleaningOptions(backend=backend))
        for row in rows:
            cleaner.extend(row)
        return cleaner

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_only_the_entry_level_carries_a_frontier(self, constraints,
                                                     tmp_path, backend):
        cleaner = self.fed(constraints, self.ROWS[:5], backend)
        path = tmp_path / "s.ckpt"
        cleaner.checkpoint(path)
        payload = read_stream_checkpoint(path)
        assert [bool(states) for states in payload.frontiers] == \
            [True, False, False]

    def test_every_level_layout_still_resumes_bit_identically(
            self, constraints, tmp_path):
        # The layout older versions wrote: every retained level carries
        # its frontier.  Resume ignores all but the entry frontier.
        killed = self.fed(constraints, self.ROWS[:5])
        names = {}

        def lid(name):
            return names.setdefault(name, len(names))

        rows = [[(lid(location), p) for location, p in row.items()]
                for row in killed._rows]
        frontiers = [[(lid(location), stay,
                       tuple((time, lid(departed))
                             for time, departed in departures), mass)
                      for (location, stay, departures), mass
                      in frontier_to_dict(frontier).items()]
                     for frontier in killed._frontiers]
        assert all(frontiers)
        path = tmp_path / "s.ckpt"
        killed.checkpoint(path)
        meta = read_stream_checkpoint(path).meta
        write_stream_checkpoint(path, meta=meta, location_names=list(names),
                                rows=rows, frontiers=frontiers)
        resumed = StreamingCleaner.resume(path)
        uninterrupted = self.fed(constraints, self.ROWS)
        for row in self.ROWS[5:]:
            resumed.extend(row)
        assert resumed.filtered_distribution() == \
            uninterrupted.filtered_distribution()
        assert resumed.finalize().to_flat() == \
            uninterrupted.finalize().to_flat()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_entry_frontier_is_a_format_error(self, constraints,
                                                    tmp_path, backend):
        path = tmp_path / "s.ckpt"
        self.fed(constraints, self.ROWS[:5], backend).checkpoint(path)
        payload = read_stream_checkpoint(path)
        write_stream_checkpoint(path, meta=payload.meta,
                                location_names=payload.location_names,
                                rows=payload.rows,
                                frontiers=[()] * len(payload.rows))
        with pytest.raises(StoreFormatError, match="inconsistent"):
            StreamingCleaner.resume(path)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unreplayable_row_is_a_format_error(self, constraints, tmp_path,
                                                backend):
        # The last retained row moves A -> C, which Unreachable forbids
        # from every state of the replayed frontier.
        path = tmp_path / "s.ckpt"
        self.fed(constraints, [{"A": 1.0}] * 3, backend).checkpoint(path)
        payload = read_stream_checkpoint(path)
        names = list(payload.location_names) + ["C"]
        rows = list(payload.rows[:-1]) + [((len(names) - 1, 1.0),)]
        write_stream_checkpoint(path, meta=payload.meta,
                                location_names=names, rows=rows,
                                frontiers=payload.frontiers)
        with pytest.raises(StoreFormatError,
                           match="no valid continuation") as raised:
            StreamingCleaner.resume(path)
        assert not isinstance(raised.value, InconsistentReadingsError)


# ----------------------------------------------------------------------
# multi-object sessions
# ----------------------------------------------------------------------

class TestStreamSessionManager:
    def test_sessions_are_per_object(self, constraints):
        manager = StreamSessionManager(constraints, window=4)
        manager.ingest("a", {"A": 1.0})
        manager.ingest("b", {"B": 1.0})
        manager.ingest("a", {"A": 0.5, "B": 0.5})
        assert manager.objects() == ("a", "b")
        assert manager.session("a").duration == 2
        assert manager.session("b").duration == 1

    def test_checkpoint_all_and_resume(self, constraints, tmp_path):
        manager = StreamSessionManager(constraints, window=4,
                                       checkpoint_dir=tmp_path)
        for _ in range(3):
            manager.ingest("tag-1", {"A": 0.5, "B": 0.5})
            manager.ingest("tag 2/with:odd chars", {"B": 1.0})
        paths = manager.checkpoint_all()
        assert set(paths) == {"tag-1", "tag 2/with:odd chars"}
        restored = StreamSessionManager(constraints, window=4,
                                        checkpoint_dir=tmp_path, resume=True)
        assert set(restored.objects()) == set(paths)
        for object_id in paths:
            assert restored.session(object_id).filtered_distribution() == \
                manager.session(object_id).filtered_distribution()

    def test_periodic_checkpoints(self, constraints, tmp_path):
        manager = StreamSessionManager(constraints, window=4,
                                       checkpoint_dir=tmp_path,
                                       checkpoint_every=2)
        manager.ingest("a", {"A": 1.0})
        assert not list(tmp_path.glob("*.ckpt"))
        manager.ingest("a", {"A": 1.0})
        files = list(tmp_path.glob("*.ckpt"))
        assert len(files) == 1
        payload = read_stream_checkpoint(files[0])
        assert payload.meta["object"] == "a"
        assert payload.meta["duration"] == 2

    def test_resume_rejects_foreign_constraints(self, constraints, tmp_path):
        manager = StreamSessionManager(constraints, window=4,
                                       checkpoint_dir=tmp_path)
        manager.ingest("a", {"A": 1.0})
        manager.checkpoint_all()
        other = ConstraintSet([Unreachable("X", "Y")])
        with pytest.raises(ReadingSequenceError, match="different "
                                                       "constraint set"):
            StreamSessionManager(other, checkpoint_dir=tmp_path, resume=True)

    def test_checkpoint_every_needs_a_directory(self, constraints):
        with pytest.raises(ReadingSequenceError, match="checkpoint_dir"):
            StreamSessionManager(constraints, checkpoint_every=5)


# ----------------------------------------------------------------------
# hypothesis suite: eviction and resume never change any observable
# ----------------------------------------------------------------------

locations = st.sampled_from("ABCD")


@st.composite
def streams(draw, max_duration=10):
    duration = draw(st.integers(min_value=1, max_value=max_duration))
    rows = []
    for _ in range(duration):
        support = draw(st.lists(locations, min_size=1, max_size=4,
                                unique=True))
        weights = [draw(st.floats(min_value=0.1, max_value=1.0))
                   for _ in support]
        total = sum(weights)
        rows.append({l: w / total for l, w in zip(support, weights)})
    constraint_list = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(["du", "lt", "tt"]))
        if kind == "du":
            constraint_list.append(Unreachable(draw(locations),
                                               draw(locations)))
        elif kind == "lt":
            constraint_list.append(Latency(draw(locations),
                                           draw(st.integers(2, 3))))
        else:
            a = draw(locations)
            b = draw(locations.filter(lambda x: x != a))
            constraint_list.append(TravelingTime(a, b,
                                                 draw(st.integers(2, 3))))
    window = draw(st.integers(min_value=1, max_value=4))
    return rows, ConstraintSet(constraint_list), window


@settings(max_examples=150, deadline=None)
@given(streams(), st.sampled_from(BACKENDS))
def test_eviction_is_invisible_to_the_filtered_estimate(stream, backend):
    rows, constraints, window = stream
    options = CleaningOptions(backend=backend)
    bounded = StreamingCleaner(constraints, window=window, options=options)
    unbounded = StreamingCleaner(constraints, window=None, options=options)
    for row in rows:
        try:
            unbounded.extend(row)
        except InconsistentReadingsError:
            with pytest.raises(InconsistentReadingsError):
                bounded.extend(row)
            return
        bounded.extend(row)
        assert bounded.filtered_distribution() == \
            unbounded.filtered_distribution()
    assert bounded.retained_duration <= window


@settings(max_examples=150, deadline=None)
@given(streams(), st.sampled_from(BACKENDS), st.data())
def test_resume_equals_uninterrupted_run(stream, backend, data):
    rows, constraints, window = stream
    options = CleaningOptions(backend=backend)
    uninterrupted = StreamingCleaner(constraints, window=window,
                                     options=options)
    try:
        for row in rows:
            uninterrupted.extend(row)
    except InconsistentReadingsError:
        return
    kill_at = data.draw(st.integers(min_value=1, max_value=len(rows)),
                        label="kill_at")
    killed = StreamingCleaner(constraints, window=window, options=options)
    for row in rows[:kill_at]:
        killed.extend(row)
    fd, path = tempfile.mkstemp(suffix=".ckpt")
    os.close(fd)
    try:
        killed.checkpoint(path)
        resumed = StreamingCleaner.resume(path)
        assert resumed.options.backend == backend
        for row in rows[kill_at:]:
            resumed.extend(row)
        assert resumed.filtered_distribution() == \
            uninterrupted.filtered_distribution()
        graph_a = uninterrupted.finalize()
        graph_b = resumed.finalize()
        for relative in range(uninterrupted.retained_duration):
            assert graph_a.location_marginal(relative) == \
                graph_b.location_marginal(relative)
    finally:
        os.unlink(path)


@settings(max_examples=100, deadline=None)
@given(streams())
def test_window_finalize_matches_full_graph(stream):
    rows, constraints, window = stream
    cleaner = StreamingCleaner(constraints, window=window)
    try:
        for row in rows:
            cleaner.extend(row)
        full = build_ct_graph(LSequence(rows), constraints)
    except InconsistentReadingsError:
        return
    window_graph = cleaner.finalize()
    for relative in range(cleaner.retained_duration):
        expected = full.location_marginal(cleaner.base + relative)
        got = window_graph.location_marginal(relative)
        assert set(got) == set(expected)
        for location, probability in expected.items():
            assert got[location] == pytest.approx(probability, abs=1e-9)


# ----------------------------------------------------------------------
# every streaming route against brute-force enumeration
# ----------------------------------------------------------------------

@st.composite
def routes(draw):
    """A small stream plus a route: window, backend, resume step."""
    rows, constraints, _ = draw(streams(max_duration=8))
    window = draw(st.one_of(st.none(), st.integers(1, 4)))
    backend = draw(st.sampled_from(BACKENDS))
    resume_at = draw(st.one_of(st.none(),
                               st.integers(0, len(rows) - 1)))
    return rows, constraints, window, backend, resume_at


def assert_matches_oracle(got, expected):
    assert set(got) == set(expected)
    for location, probability in expected.items():
        assert math.isclose(got[location], probability, rel_tol=1e-9)


def checkpoint_round_trip(cleaner):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "s.ckpt")
        cleaner.checkpoint(path)
        return StreamingCleaner.resume(path)


@settings(max_examples=250, deadline=None)
@given(routes())
def test_streaming_routes_match_brute_force(route):
    """Filtered estimates and finalize() marginals of every route equal
    the enumerated conditioning; a rejected reading has no valid prefix
    and is dropped, leaving the session on the accepted rows."""
    rows, constraints, window, backend, resume_at = route
    cleaner = StreamingCleaner(constraints, window=window,
                               options=CleaningOptions(backend=backend))
    accepted = []
    oracle = None
    for step, row in enumerate(rows):
        if step == resume_at:
            cleaner = checkpoint_round_trip(cleaner)
        try:
            cleaner.extend(row)
        except InconsistentReadingsError:
            with pytest.raises(ZeroMassError):
                NaiveConditioner(LSequence(accepted + [row]),
                                 constraints).conditioned_distribution()
            continue
        accepted.append(row)
        oracle = NaiveConditioner(LSequence(accepted), constraints)
        assert_matches_oracle(cleaner.filtered_distribution(),
                              oracle.location_marginal(len(accepted) - 1))
    if oracle is None:
        return
    assert cleaner.duration == len(accepted)
    assert cleaner.base == (0 if window is None
                            else max(0, len(accepted) - window))
    graph = cleaner.finalize()
    for relative in range(cleaner.retained_duration):
        assert_matches_oracle(graph.location_marginal(relative),
                              oracle.location_marginal(cleaner.base
                                                       + relative))


# ----------------------------------------------------------------------
# online TL pruning: a child keeps the entries a walk from its own
# (location, stay) can still bind
# ----------------------------------------------------------------------

def frontier_bits(frontier):
    """A dict frontier as ``(state, mass bits)`` pairs, in key order."""
    return [(state, mass.hex()) for state, mass in frontier.items()]


class TestOnlineDeparturePruning:
    """``travelingTime(A, D, 4)``: a departure from A at 0 forbids
    arriving at D until timestep 3."""

    @staticmethod
    def fed(constraints, rows, backend):
        cleaner = StreamingCleaner(constraints, window=None,
                                   options=CleaningOptions(backend=backend))
        for row in rows:
            cleaner.extend(row)
        return cleaner

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_binding_stay_drops_what_the_parent_keeps(self, backend):
        # A child at B at 1 with stay 1 of latency 3 reaches D at 4 the
        # earliest, after the entry's window.  The parent at A, and the
        # same child once its stay is met, reach D at 2, so only the
        # child's binding stay drops the entry.
        constraints = ConstraintSet([TravelingTime("A", "D", 4),
                                     Latency("B", 3)])
        assert binding_ages("B", 1, constraints)["A"] == 0
        assert binding_ages("B", 2, constraints)["A"] == 1
        assert binding_ages("B", None, constraints)["A"] == 2
        assert binding_ages("A", None, constraints)["A"] == 2
        cleaner = self.fed(constraints, [{"A": 1.0}, {"B": 1.0}], backend)
        assert list(frontier_to_dict(cleaner._live())) == [("B", 1, ())]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_an_unnamed_location_relays_the_walk(self, backend):
        # No walk over the named locations reaches D from B (B -> D and
        # A -> D are cut), but X, which no constraint names, relays
        # B -> X -> D by 3: the entry binds and must stay.
        constraints = ConstraintSet([TravelingTime("A", "D", 4),
                                     Unreachable("B", "D"),
                                     Unreachable("A", "D")])
        assert binding_ages("B", None, constraints)["A"] == 1
        assert binding_ages("X", None, constraints)["A"] == 2
        rows = [{"A": 1.0}, {"B": 1.0}, {"X": 1.0}]
        cleaner = self.fed(constraints, rows[:2], backend)
        assert list(frontier_to_dict(cleaner._live())) == \
            [("B", None, ((0, "A"),))]
        cleaner.extend(rows[2])
        with pytest.raises(InconsistentReadingsError):
            cleaner.extend({"D": 1.0})
        with pytest.raises(ZeroMassError):
            NaiveConditioner(LSequence(rows + [{"D": 1.0}]),
                             constraints).conditioned_distribution()

    def test_no_row_keeps_an_entry_past_the_horizon(self):
        constraints = ConstraintSet([
            TravelingTime("A", "D", 6), TravelingTime("A", "C", 3),
            TravelingTime("D", "A", 2), Latency("B", 4), Latency("D", 2),
            Unreachable("B", "D"), Unreachable("C", "A")])
        rows, wildcard = nodes._binding_ages(constraints)
        assert dict(wildcard) == {
            source: constraints.max_traveling_time(source) - 2
            for source in constraints.tt_sources}
        # A and C one row each, B one per stay None, 1, 2, 3, D per
        # None, 1.
        assert len(rows) == 1 + 1 + 4 + 2
        for ages in rows.values():
            assert ages.keys() == wildcard.keys()
            assert all(ages[source] <= wildcard[source]
                       for source in ages)


@st.composite
def pruned_routes(draw):
    """A stream where the online pruning bites, plus a route.

    Rows and bounds are drawn like ``tt_du_heavy_instances`` (five
    locations, 1-3 candidates a step, 2-6 TT bounds of 2-6 steps, 0-3
    DU pairs); a latency always sits on a location in front of a TT
    destination, so a child's binding stay keeps entries from it.  A
    location no constraint names relays walks when drawn.
    """
    five = st.sampled_from(("A", "B", "C", "D", "E"))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
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
    destination = draw(st.sampled_from(sorted(
        {bound.loc_b for bound in constraints})))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        constraints.append(Unreachable(draw(five), draw(five)))
    constraints.append(Latency(
        draw(five.filter(lambda x: x != destination)),
        draw(st.integers(min_value=2, max_value=4))))
    window = draw(st.one_of(st.none(), st.integers(1, 4)))
    backend = draw(st.sampled_from(BACKENDS))
    resume_at = draw(st.one_of(st.none(),
                               st.integers(0, len(rows) - 1)))
    return rows, ConstraintSet(constraints), window, backend, resume_at


@settings(max_examples=250, deadline=None)
@given(pruned_routes())
def test_pruned_streams_match_brute_force(route):
    """Where the online pruning drops entries: every step's compact
    frontier equals ``advance_frontier``'s in key order and float bits,
    so does the route's own live frontier, no entry outlives the
    horizon rule, and filtered estimates and ``finalize()`` marginals
    equal the enumerated conditioning."""
    rows, constraints, window, backend, resume_at = route
    cleaner = StreamingCleaner(constraints, window=window,
                               options=CleaningOptions(backend=backend))
    cache = EngineCache(constraints)
    expected = {}
    compact = None
    accepted = []
    oracle = None
    for step, row in enumerate(rows):
        if step == resume_at:
            cleaner = checkpoint_round_trip(cleaner)
        tau = len(accepted)
        coerced = coerce_candidate_row(row, tau)
        advanced = advance_frontier(expected, coerced, tau, constraints)
        stepped = (cache.advance(compact, coerced) if tau
                   else cache.seed(coerced))
        assert frontier_bits(stepped.to_dict()) == frontier_bits(advanced)
        try:
            cleaner.extend(row)
        except InconsistentReadingsError:
            assert not advanced
            with pytest.raises(ZeroMassError):
                NaiveConditioner(LSequence(accepted + [row]),
                                 constraints).conditioned_distribution()
            continue
        expected, compact = advanced, stepped
        accepted.append(row)
        assert frontier_bits(frontier_to_dict(cleaner._live())) == \
            frontier_bits(expected)
        for state in expected:
            for departed_at, departed in state[2]:
                assert tau - departed_at < \
                    constraints.max_traveling_time(departed)
        oracle = NaiveConditioner(LSequence(accepted), constraints)
        assert_matches_oracle(cleaner.filtered_distribution(),
                              oracle.location_marginal(tau))
    if oracle is None:
        return
    graph = cleaner.finalize()
    for relative in range(cleaner.retained_duration):
        assert_matches_oracle(graph.location_marginal(relative),
                              oracle.location_marginal(cleaner.base
                                                       + relative))


class TestCheckpointFromBeforeOnlinePruning:
    """Streams used to keep every ``TL`` entry the ``maxTravelingTime``
    horizon kept, so checkpoints written then store entry frontiers
    with entries the online pruning drops.  They resume and continue,
    equal to enumeration up to rounding: the pruned states merge at the
    next advance, which sums their masses in another order."""

    CONSTRAINTS = ConstraintSet([
        TravelingTime("A", "D", 5), Latency("B", 3),
        Unreachable("C", "D"), Unreachable("D", "C")])
    ROWS = [{"A": 0.6, "C": 0.4}, {"B": 0.5, "C": 0.5},
            {"B": 0.7, "C": 0.3}, {"B": 0.6, "E": 0.4},
            {"B": 0.5, "D": 0.5}, {"B": 0.4, "D": 0.6},
            {"A": 0.5, "D": 0.5}, {"B": 0.3, "D": 0.7}]

    @pytest.mark.parametrize("window", [None, 3])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unpruned_entry_frontier_resumes(self, tmp_path, monkeypatch,
                                             backend, window):
        kill_at = 5
        with monkeypatch.context() as patch:
            # The python oracle as it ran before: the horizon rule alone.
            patch.setattr(incremental, "_binding_departures",
                          lambda state, tau, constraints: state)
            legacy = StreamingCleaner(
                self.CONSTRAINTS, window=window,
                options=CleaningOptions(backend="python"))
            for row in self.ROWS[:kill_at]:
                legacy.extend(row)
        entry_tau = legacy.base if window else kill_at - 1
        stored = frontier_to_dict(legacy._frontiers[0])
        assert any(nodes._binding_departures(state, entry_tau,
                                             self.CONSTRAINTS) != state
                   for state in stored)

        options = CleaningOptions(backend=backend)
        killed = StreamingCleaner(self.CONSTRAINTS, window=window,
                                  options=options)
        for row in self.ROWS[:kill_at]:
            killed.extend(row)
        path = tmp_path / "s.ckpt"
        killed.checkpoint(path)
        payload = read_stream_checkpoint(path)
        names = list(payload.location_names)

        def lid(name):
            if name not in names:
                names.append(name)
            return names.index(name)

        entry = 0 if window else len(payload.rows) - 1
        frontiers = [()] * len(payload.rows)
        frontiers[entry] = [
            (lid(location), stay,
             tuple((time, lid(departed)) for time, departed in departures),
             mass)
            for (location, stay, departures), mass in stored.items()]
        write_stream_checkpoint(path, meta=payload.meta,
                                location_names=names, rows=payload.rows,
                                frontiers=frontiers)

        resumed = StreamingCleaner.resume(path)
        assert resumed.options.backend == backend
        for row in self.ROWS[kill_at:]:
            resumed.extend(row)
        enumerated = NaiveConditioner(LSequence(self.ROWS),
                                      self.CONSTRAINTS)
        last = len(self.ROWS) - 1

        def assert_close(got, expected):
            assert set(got) == set(expected)
            for location, probability in expected.items():
                assert math.isclose(got[location], probability,
                                    rel_tol=1e-12)

        assert_close(resumed.filtered_distribution(),
                     enumerated.location_marginal(last))
        graph = resumed.finalize()
        for relative in range(resumed.retained_duration):
            assert_close(graph.location_marginal(relative),
                         enumerated.location_marginal(resumed.base
                                                      + relative))
