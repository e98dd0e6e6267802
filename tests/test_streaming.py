"""Tests for the streaming cleaner (bounded and unbounded) and its checkpoints."""

import math
import os
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algorithm import CleaningOptions, build_ct_graph
from repro.core.constraints import (
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.core.incremental import frontier_to_dict
from repro.core.lsequence import LSequence
from repro.core.naive import NaiveConditioner
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
