"""The binary graph store: ``.ctg`` round-trips, mmap parity, the cache.

Four layers are pinned here:

* the codec — build → ``save_ctg`` → ``load_ctg`` reproduces the exact
  :class:`FlatCTGraph` (hypothesis, both engines x every backend value,
  mmap and bytes backings), and every structural corruption raises a typed
  :class:`StoreError` rather than an ``AttributeError``/``struct.error``;
* the engine sink — ``CleaningOptions(output=...)`` writes the arrays
  straight to disk and the served view answers every ``QuerySession``
  bundle identically to the in-memory graph;
* the cache — :class:`GraphStore` keys by problem content (sensitive to
  candidates, constraints and policy; stable across runs), and
  ``clean_many(..., store=...)`` ships only paths over the worker pipe;
* the advisor's ``.ctg`` size prediction, pinned within 2x of measured.
"""

import dataclasses
import hashlib
import json
import mmap as mmap_module
import multiprocessing
import os
import pickle
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algorithm import (
    BACKENDS,
    CleaningOptions,
    CleaningStats,
    build_ct_graph,
)
from repro.core.constraints import (
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.core.flatgraph import FlatCTGraph
from repro.core.lsequence import LSequence
from repro.errors import (
    GraphExportError,
    InconsistentReadingsError,
    ReadingSequenceError,
    StoreChecksumError,
    StoreError,
    StoreFormatError,
)
from repro.queries.session import QuerySession
from repro.store.format import HEADER_BYTES, _HEADER, _SECTION_ENTRY
from repro.store import (
    CTG_MAGIC,
    GraphStore,
    MappedCTGraph,
    content_key,
    load_ctg,
    save_ctg,
    write_ctg,
)
from repro.store.format import write_mapped_ctg

from tests.test_imports import loaded_after

try:
    import numpy  # noqa: F401 - availability probe
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - the no-numpy CI leg
    HAVE_NUMPY = False

LOCATIONS = ("A", "B", "C", "D")
locations = st.sampled_from(LOCATIONS)

ENGINES = ("reference", "compact")


@st.composite
def lsequences(draw, max_duration=8):
    duration = draw(st.integers(min_value=1, max_value=max_duration))
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
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(["du", "tt", "lt"]))
        if kind == "du":
            constraints.append(Unreachable(draw(locations), draw(locations)))
        elif kind == "tt":
            a = draw(locations)
            b = draw(locations.filter(lambda x: x != a))
            constraints.append(TravelingTime(
                a, b, draw(st.integers(min_value=2, max_value=4))))
        else:
            constraints.append(Latency(
                draw(locations), draw(st.integers(min_value=2, max_value=4))))
    return ConstraintSet(constraints)


def small_instance():
    lsequence = LSequence([{"A": 0.6, "B": 0.4}, {"A": 0.5, "C": 0.5},
                           {"B": 0.7, "C": 0.3}])
    constraints = ConstraintSet([Unreachable("A", "C")])
    return lsequence, constraints


def query_bundle(graph, backend="python"):
    """Every QuerySession answer family, as one comparable structure."""
    session = QuerySession(graph, backend=backend)
    return {
        "marginals": [session.location_marginal(tau)
                      for tau in range(graph.duration)],
        "entropy": session.entropy_profile(),
        "visits": session.expected_visit_counts(),
        "visit_p": {loc: session.visit_probability(loc)
                    for loc in LOCATIONS},
        "span": session.span_probability("A", 0, graph.duration - 1),
        "dwell": session.time_at_location_distribution("B"),
        "first": session.first_visit_distribution("B"),
        "best": session.most_likely_trajectory(),
        "top2": session.top_k_trajectories(2),
        "match": session.match_probability("? B ?")
        if graph.duration >= 2 else None,
    }


# ----------------------------------------------------------------------
# codec round-trips
# ----------------------------------------------------------------------
class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(lsequences(), constraint_sets(),
           st.sampled_from(ENGINES), st.sampled_from(BACKENDS))
    def test_save_load_reproduces_flat_graph(self, tmp_path_factory,
                                             lsequence, constraints,
                                             engine, backend):
        options = CleaningOptions(engine=engine, backend=backend,
                                  materialize="flat")
        try:
            flat = build_ct_graph(lsequence, constraints, options)
        except InconsistentReadingsError:
            return
        path = tmp_path_factory.mktemp("ctg") / "graph.ctg"
        save_ctg(flat, path)
        for mmap in (True, False):
            with load_ctg(path, mmap=mmap, verify=True) as view:
                assert view.materialize() == flat
                assert view.num_nodes == flat.num_nodes
                assert view.num_edges == flat.num_edges
                assert view.stats == flat.stats

    @settings(max_examples=40, deadline=None)
    @given(lsequences(), constraint_sets(),
           st.sampled_from(ENGINES), st.sampled_from(BACKENDS))
    def test_mmap_sessions_answer_identically(self, tmp_path_factory,
                                              lsequence, constraints,
                                              engine, backend):
        options = CleaningOptions(engine=engine, backend=backend,
                                  materialize="flat")
        try:
            flat = build_ct_graph(lsequence, constraints, options)
        except InconsistentReadingsError:
            return
        path = tmp_path_factory.mktemp("ctg") / "graph.ctg"
        save_ctg(flat, path)
        with load_ctg(path) as view:
            assert query_bundle(view, backend) == query_bundle(flat, backend)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_engine_writes_ctg_directly(self, tmp_path, engine, backend):
        lsequence, constraints = small_instance()
        flat = build_ct_graph(lsequence, constraints,
                              CleaningOptions(engine=engine, backend=backend,
                                              materialize="flat"))
        path = tmp_path / "direct.ctg"
        view = build_ct_graph(lsequence, constraints,
                              CleaningOptions(engine=engine, backend=backend,
                                              output=str(path)))
        assert isinstance(view, MappedCTGraph)
        assert view.materialize() == flat
        assert view.trajectory_probability(("B", "A", "B")) == \
            pytest.approx(flat_probability_of(flat, ("B", "A", "B")))
        view.close()
        # The direct write and the save_ctg path produce identical bytes
        # (modulo the stats timings, which is why stats travel too).
        other = tmp_path / "saved.ctg"
        save_ctg(flat, other)
        assert abs(path.stat().st_size - other.stat().st_size) <= 256

    def test_ctgraph_save_ctg_converts(self, tmp_path):
        lsequence, constraints = small_instance()
        node = build_ct_graph(lsequence, constraints,
                              CleaningOptions(materialize="nodes"))
        path = tmp_path / "node.ctg"
        save_ctg(node, path)
        with load_ctg(path) as view:
            assert view.materialize() == node.to_flat()

    def test_estimate_size_is_the_file_size(self, tmp_path):
        lsequence, constraints = small_instance()
        path = tmp_path / "g.ctg"
        view = build_ct_graph(lsequence, constraints,
                              CleaningOptions(output=str(path)))
        assert view.estimate_size_bytes() == os.path.getsize(path)
        view.close()


class TestMappedColumns:
    """``load_ctg`` serves every column as a ``memoryview`` cast of the
    file, and sessions read the casts as they are."""

    @staticmethod
    def wide_graph():
        lsequence = LSequence([{"A": 0.4, "B": 0.35, "C": 0.25}
                               for _ in range(30)])
        constraints = ConstraintSet([Unreachable("A", "C"), Latency("B", 2)])
        return build_ct_graph(lsequence, constraints,
                              CleaningOptions(materialize="flat"))

    @pytest.mark.skipif(sys.byteorder != "little",
                        reason="big-endian hosts copy each column")
    @pytest.mark.parametrize("mmap", (True, False))
    def test_columns_are_casts_of_the_file(self, tmp_path, mmap):
        flat = self.wide_graph()
        path = tmp_path / "g.ctg"
        save_ctg(flat, path)
        backing = mmap_module.mmap if mmap else bytes
        with load_ctg(path, mmap=mmap) as view:
            columns = (view.locations + view.edge_offsets
                       + view.edge_children + view.edge_probabilities
                       + (view.source_probabilities,))
            assert all(type(column) is memoryview
                       and type(column.obj) is backing
                       for column in columns)
            assert query_bundle(view) == query_bundle(view.materialize())

    @pytest.mark.parametrize("mmap", (True, False))
    def test_resaving_a_mapped_view_is_byte_identical(self, tmp_path, mmap):
        first, second = tmp_path / "first.ctg", tmp_path / "second.ctg"
        save_ctg(self.wide_graph(), first)
        with load_ctg(first, mmap=mmap) as view:
            save_ctg(view, second)
        assert second.read_bytes() == first.read_bytes()


class TestPinnedBytes:
    """The writer's bytes, pinned by digest: a flat graph with ``None``
    and counted stays, a non-ASCII name and a stats block; the same
    graph through ndarray columns; a mapped re-save; and the graph
    without stats.  A writer change that moves one byte fails here."""

    GRAPH = FlatCTGraph(
        location_names=("A", "B", "Hall-\u00df"),
        locations=((0, 1), (1, 2, 0), (2,)),
        stays=((None, 1), (2, None, None), (None,)),
        edge_offsets=((0, 2, 3), (0, 1, 2, 3)),
        edge_children=((0, 1, 2), (0, 0, 0)),
        edge_probabilities=((0.25, 0.75, 1.0), (1.0, 1.0, 1.0)),
        source_probabilities=(0.375, 0.625),
        stats=CleaningStats(nodes_created=9, nodes_removed=3,
                            edges_created=8, edges_removed=2,
                            forward_seconds=0.5, backward_seconds=0.25,
                            sweep_seconds=0.125))
    WITH_STATS = (648, "a830dabd8ab3a9cc2acd5dc690c854da"
                       "752c80f854eedf0eefe1830f9b330830")
    WITHOUT_STATS = (488, "bbf3614ce987eaae47610e14793d6745"
                          "0ae088374d02b0174ae545e751da960a")

    @staticmethod
    def pin(path, written):
        data = path.read_bytes()
        assert written == len(data)
        return len(data), hashlib.sha256(data).hexdigest()

    def test_flat_graph(self, tmp_path):
        self.GRAPH.validate()
        path = tmp_path / "g.ctg"
        assert self.pin(path, save_ctg(self.GRAPH, path)) == self.WITH_STATS
        path = tmp_path / "bare.ctg"
        bare = dataclasses.replace(self.GRAPH, stats=None)
        assert self.pin(path, save_ctg(bare, path)) == self.WITHOUT_STATS

    @pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")
    def test_ndarray_columns(self, tmp_path):
        import numpy

        graph = self.GRAPH
        path = tmp_path / "g.ctg"
        written = write_ctg(
            path, location_names=graph.location_names,
            locations=[numpy.array(level, dtype=numpy.int64)
                       for level in graph.locations],
            stays=[numpy.array([-1 if stay is None else stay
                                for stay in level], dtype=numpy.int64)
                   for level in graph.stays],
            edge_offsets=[numpy.array(level, dtype=numpy.int64)
                          for level in graph.edge_offsets],
            edge_children=[numpy.array(level, dtype=numpy.int64)
                           for level in graph.edge_children],
            edge_probabilities=[numpy.array(level)
                                for level in graph.edge_probabilities],
            source_probabilities=numpy.array(graph.source_probabilities),
            stats=graph.stats)
        assert self.pin(path, written) == self.WITH_STATS

    @pytest.mark.parametrize("mmap", (True, False))
    def test_mapped_resave(self, tmp_path, mmap):
        first, second = tmp_path / "first.ctg", tmp_path / "second.ctg"
        save_ctg(self.GRAPH, first)
        with load_ctg(first, mmap=mmap) as view:
            written = save_ctg(view, second)
        assert self.pin(second, written) == self.WITH_STATS

    def test_mapped_write(self, tmp_path):
        path = tmp_path / "g.ctg"
        graph = self.GRAPH
        with write_mapped_ctg(
                path, location_names=graph.location_names,
                locations=graph.locations, stays=graph.stays,
                edge_offsets=graph.edge_offsets,
                edge_children=graph.edge_children,
                edge_probabilities=graph.edge_probabilities,
                source_probabilities=graph.source_probabilities,
                stats=graph.stats) as view:
            assert self.pin(path, path.stat().st_size) == self.WITH_STATS
            with load_ctg(path) as loaded:
                assert mapped_columns(view) == mapped_columns(loaded)
            assert view.materialize() == graph


def mapped_columns(view):
    """Everything a mapped view serves, column by column with item sizes
    (not its path)."""
    def levels(columns):
        return [(column.itemsize, column.tolist()) for column in columns]

    return (view.backing, view.location_names, view.num_nodes,
            view.num_edges, view.stats, view.stays, levels(view.locations),
            levels(view.edge_offsets), levels(view.edge_children),
            levels(view.edge_probabilities),
            levels((view.source_probabilities,)))


class TestStoreBuildViews:
    """A store build returns the file it wrote mapped from the writer's
    own descriptor: column for column what a later ``load_ctg`` serves,
    and still readable after the store renames the file."""

    @settings(max_examples=40, deadline=None)
    @given(lsequences(), constraint_sets(),
           st.sampled_from(ENGINES), st.sampled_from(BACKENDS))
    def test_view_equals_a_load_after_commit(self, tmp_path_factory,
                                             lsequence, constraints,
                                             engine, backend):
        store = GraphStore(tmp_path_factory.mktemp("store"))
        options = CleaningOptions(engine=engine, backend=backend)
        key = store.key_for(lsequence, constraints, options)
        temp = store.temp_path_for(key)
        try:
            view = build_ct_graph(lsequence, constraints, dataclasses.replace(
                options, materialize="store", output=str(temp)))
        except InconsistentReadingsError:
            return
        final = store.commit(temp, key)
        assert not temp.exists()
        with view, load_ctg(final) as loaded:
            assert mapped_columns(view) == mapped_columns(loaded)
            assert query_bundle(view, backend) == query_bundle(loaded,
                                                               backend)
            assert view.materialize() == build_ct_graph(
                lsequence, constraints,
                dataclasses.replace(options, materialize="flat"))


def flat_probability_of(flat, trajectory):
    """Oracle: trajectory probability through the node graph."""
    from repro.queries.trajectory import TrajectoryQuery

    pattern = " ".join(trajectory)
    return TrajectoryQuery(pattern).probability(flat)


# ----------------------------------------------------------------------
# corruption and option validation
# ----------------------------------------------------------------------
class TestCorruption:
    @pytest.fixture
    def good(self, tmp_path):
        lsequence, constraints = small_instance()
        flat = build_ct_graph(lsequence, constraints,
                              CleaningOptions(materialize="flat"))
        path = tmp_path / "good.ctg"
        save_ctg(flat, path)
        return path

    def test_truncated_header(self, good):
        data = good.read_bytes()
        good.write_bytes(data[:32])
        with pytest.raises(StoreFormatError, match="truncat|short"):
            load_ctg(good)

    def test_truncated_payload(self, good):
        data = good.read_bytes()
        good.write_bytes(data[:-16])
        with pytest.raises(StoreFormatError):
            load_ctg(good)

    def test_bad_magic(self, good):
        data = bytearray(good.read_bytes())
        data[:8] = b"NOTACTG\x00"
        good.write_bytes(bytes(data))
        with pytest.raises(StoreFormatError, match="magic"):
            load_ctg(good)

    def test_unsupported_version(self, good):
        data = bytearray(good.read_bytes())
        data[8:12] = (99).to_bytes(4, "little")
        good.write_bytes(bytes(data))
        with pytest.raises(StoreFormatError, match="version"):
            load_ctg(good)

    def test_checksum_mismatch_only_on_verify(self, good):
        data = bytearray(good.read_bytes())
        # Flip one character of an interned location name: the file stays
        # structurally intact, so the default (unverified) load still
        # serves it, but the payload CRC no longer matches.
        data[data.index(ord("A"), 64)] ^= 0x01
        good.write_bytes(bytes(data))
        load_ctg(good).close()
        with pytest.raises(StoreChecksumError):
            load_ctg(good, verify=True)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.ctg"
        path.write_bytes(b"")
        with pytest.raises(StoreFormatError):
            load_ctg(path)

    def test_magic_constant_spelled(self, good):
        assert good.read_bytes()[:8] == CTG_MAGIC

    def test_store_materialize_requires_output(self):
        with pytest.raises(ReadingSequenceError, match="output"):
            CleaningOptions(materialize="store")

    def test_output_rejects_node_materialize(self):
        with pytest.raises(ReadingSequenceError, match="store"):
            CleaningOptions(materialize="nodes", output="x.ctg")


# ----------------------------------------------------------------------
# the content-addressed store
# ----------------------------------------------------------------------
class TestGraphStore:
    def test_put_load_contains(self, tmp_path):
        lsequence, constraints = small_instance()
        flat = build_ct_graph(lsequence, constraints,
                              CleaningOptions(materialize="flat"))
        store = GraphStore(tmp_path / "store")
        key = store.key_for(lsequence, constraints)
        store.put(flat, key)
        assert key in store
        assert len(store) == 1 and store.keys() == [key]
        with store.load(key) as view:
            assert view.materialize() == flat
        with pytest.raises(StoreError, match="no graph stored"):
            store.load("0" * 64)

    def test_clean_caches(self, tmp_path):
        lsequence, constraints = small_instance()
        store = GraphStore(tmp_path / "store")
        first = store.clean(lsequence, constraints)
        second = store.clean(lsequence, constraints)
        assert (store.hits, store.misses) == (1, 1)
        assert first.materialize() == second.materialize()
        first.close()
        second.close()
        assert not list((tmp_path / "store").glob(".*")), \
            "staging temp files must not survive a commit"

    def test_key_sensitivity(self):
        lsequence, constraints = small_instance()
        base = content_key(lsequence, constraints)
        assert base == content_key(lsequence, constraints), "not stable"
        assert base != content_key(lsequence, ConstraintSet())
        assert base != content_key(
            lsequence, constraints,
            CleaningOptions(truncated_stay_policy="strict"))
        assert base != content_key(lsequence, constraints, extra="v2")
        other = LSequence([{"A": 0.6, "B": 0.4}])
        assert base != content_key(other, constraints)
        # Engine and backend choices are excluded: both engines are
        # bit-exact, and every backend runs the same sweep.
        assert base == content_key(
            lsequence, constraints, CleaningOptions(engine="compact"))
        for backend in BACKENDS:
            assert base == content_key(
                lsequence, constraints, CleaningOptions(backend=backend))

    def test_key_bytes_are_pinned(self):
        # A key written by earlier releases: existing stores stay valid.
        # Repeated statements stay in the key, as they always were.
        lsequence = LSequence([{"A": 0.6, "B": 0.4}, {"A": 0.5, "C": 0.5},
                               {"B": 1.0}])
        constraints = ConstraintSet([
            TravelingTime("A", "C", 3), Unreachable("C", "A"),
            Latency("B", 2), Unreachable("C", "A")])
        assert content_key(lsequence, constraints) == (
            "8d32fd2d5a7674f8fbf0ffcaee33523e47e03730b81db43abfd1f985a13fc97c")

    def test_constraints_are_stringified_once_per_set(self, monkeypatch):
        calls = []
        for kind in (Unreachable, TravelingTime, Latency):
            def counted(self, original=kind.__str__):
                calls.append(self)
                return original(self)
            monkeypatch.setattr(kind, "__str__", counted)
        lsequence, _ = small_instance()
        constraints = ConstraintSet([
            Unreachable("A", "C"), TravelingTime("A", "B", 3),
            Latency("B", 2)])
        keys = {content_key(lsequence, constraints) for _ in range(5)}
        assert len(keys) == 1
        assert len(calls) == len(constraints)


def reference_key(lsequence, constraints, options=None, extra=None):
    """The key as one JSON text hashed in one go: what the cached-prefix
    ``content_key`` must reproduce byte for byte."""
    options = options or CleaningOptions()
    payload = {
        "format": "rfid-ctg/ctg-key@1",
        "levels": [[[location, float(probability).hex()]
                    for location, probability
                    in lsequence.candidates(tau).items()]
                   for tau in range(lsequence.duration)],
        "constraints": constraints.sorted_statements,
        "truncated_stay_policy": options.truncated_stay_policy,
        "backend": "python",
        "extra": extra,
    }
    return hashlib.sha256(json.dumps(
        payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


class TestKeyPrefix:
    """``content_key`` hashes the constraint part of its payload once per
    (statements, ``extra``) and copies that hash state per key;
    every key still equals the one-shot digest of the whole payload."""

    LSEQUENCES = (
        LSequence([{"A": 0.6, "B": 0.4}, {"A": 0.5, "C": 0.5}]),
        LSequence([{"B": 1.0}, {"C": 0.25, "A": 0.75}, {"A": 1.0}]),
        LSequence([{"Hall-\u00df": 0.5, "A": 0.5}]),
    )
    FIRST = ConstraintSet([Unreachable("A", "C"), TravelingTime("A", "B", 3),
                           Latency("B", 2)])
    SECOND = ConstraintSet([Unreachable("C", "A"), Latency("A", 3)])

    @pytest.mark.parametrize("extra", [
        None,
        "map-rev-7",
        {"zeta": [3, {"b": 1, "a": [None, True]}], "alpha": {"y": 2.5,
                                                              "x": "\u00e9"},
         "mid": []},
    ], ids=["none", "string", "nested-dict"])
    @pytest.mark.parametrize("backend", ["auto", "python", "numpy"])
    @pytest.mark.parametrize("policy", ["lenient", "strict"])
    def test_keys_equal_the_one_shot_digest(self, extra, backend, policy):
        options = CleaningOptions(backend=backend,
                                  truncated_stay_policy=policy)
        for lsequence in self.LSEQUENCES:
            for _ in range(2):  # a cache miss, then a hit
                assert content_key(lsequence, self.FIRST, options,
                                   extra=extra) == reference_key(
                    lsequence, self.FIRST, options, extra)

    def test_constraint_sets_taking_turns(self):
        # An equal set that repeats a statement has a different key: the
        # cache is keyed by the statements, not by set equality.
        repeated = ConstraintSet(list(self.FIRST) + [Unreachable("A", "C")])
        assert repeated == self.FIRST
        keys = set()
        for _ in range(3):
            for constraints in (self.FIRST, self.SECOND, repeated,
                                ConstraintSet()):
                for lsequence in self.LSEQUENCES:
                    key = content_key(lsequence, constraints)
                    assert key == reference_key(lsequence, constraints)
                    keys.add(key)
        assert len(keys) == 4 * len(self.LSEQUENCES)

    def test_statements_are_encoded_once_per_prefix(self):
        from repro.store.graphstore import _key_prefix

        _key_prefix.cache_clear()
        calls = 0
        for lsequence in self.LSEQUENCES * 3:
            content_key(lsequence, self.FIRST)
            content_key(lsequence, self.FIRST, extra={"b": 1, "a": 2})
            calls += 2
        info = _key_prefix.cache_info()
        assert (info.misses, info.hits) == (2, calls - 2)


# ----------------------------------------------------------------------
# hostile files against the loader
# ----------------------------------------------------------------------
#: Section indices of a 3-level graph in canonical order.
LOC_1, PROB_0, OFF_0, CHILD_0 = 2, 8, 6, 7


class TestHostileFiles:
    """Files a broken or hostile writer could produce.  Each must raise
    :class:`StoreFormatError` naming the path, on either backing — never
    an ``IndexError`` or a silently misread column."""

    @pytest.fixture
    def good(self, tmp_path):
        path = tmp_path / "hostile.ctg"
        save_ctg(TestPinnedBytes.GRAPH, path)
        return path

    @staticmethod
    def header(data):
        return list(_HEADER.unpack_from(data, 0))

    @staticmethod
    def entry(data, index):
        table_offset = _HEADER.unpack_from(data, 0)[7]
        return _SECTION_ENTRY.unpack_from(
            data, table_offset + index * _SECTION_ENTRY.size)

    @staticmethod
    def set_entry(data, index, offset, count):
        table_offset = _HEADER.unpack_from(data, 0)[7]
        _SECTION_ENTRY.pack_into(
            data, table_offset + index * _SECTION_ENTRY.size, offset, count)

    @staticmethod
    def rejects(path, mmap, match):
        with pytest.raises(StoreFormatError, match=match) as caught:
            load_ctg(path, mmap=mmap)
        assert str(path) in str(caught.value)

    def test_the_untouched_file_loads(self, good):
        with load_ctg(good) as view:
            assert view.materialize() == TestPinnedBytes.GRAPH

    @pytest.mark.parametrize("mmap", (True, False))
    @pytest.mark.parametrize("index, shift", [(LOC_1, 2), (PROB_0, 4)],
                             ids=["int32-by-2", "float64-by-4"])
    def test_misaligned_column(self, good, mmap, index, shift):
        data = bytearray(good.read_bytes())
        offset, count = self.entry(data, index)
        self.set_entry(data, index, offset + shift, count)
        good.write_bytes(bytes(data))
        self.rejects(good, mmap, "not aligned")

    @pytest.mark.parametrize("mmap", (True, False))
    def test_misaligned_section_table(self, good, mmap):
        data = bytearray(good.read_bytes())
        header = self.header(data)
        table_offset = header[7]
        data[table_offset:table_offset] = bytes(4)
        header[7] += 4
        header[8] += 4
        _HEADER.pack_into(data, 0, *header)
        good.write_bytes(bytes(data))
        self.rejects(good, mmap, "not 8-byte aligned")

    @pytest.mark.parametrize("mmap", (True, False))
    def test_section_table_past_the_payload(self, good, mmap):
        data = bytearray(good.read_bytes())
        header = self.header(data)
        header[7] = HEADER_BYTES + header[8] - 8
        _HEADER.pack_into(data, 0, *header)
        good.write_bytes(bytes(data))
        self.rejects(good, mmap, "section table out of bounds")

    @pytest.mark.parametrize("mmap", (True, False))
    def test_more_levels_than_the_table_holds(self, good, mmap):
        """Refused before anything is sized by the claimed level count."""
        import tracemalloc

        data = bytearray(good.read_bytes())
        header = self.header(data)
        header[3] = 200_000
        _HEADER.pack_into(data, 0, *header)
        good.write_bytes(bytes(data))
        tracemalloc.start()
        try:
            self.rejects(good, mmap, "section table out of bounds")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("mmap", (True, False))
    def test_column_past_the_payload(self, good, mmap):
        data = bytearray(good.read_bytes())
        offset, count = self.entry(data, CHILD_0)
        self.set_entry(data, CHILD_0, len(data) - 8, count)
        good.write_bytes(bytes(data))
        self.rejects(good, mmap, r"section child\[0\] out of bounds")

    @pytest.mark.parametrize("mmap", (True, False))
    def test_last_csr_offset_disagrees(self, good, mmap):
        data = bytearray(good.read_bytes())
        offset, count = self.entry(data, OFF_0)
        _, children = self.entry(data, CHILD_0)
        last = offset + 4 * (count - 1)
        data[last:last + 4] = (children + 1).to_bytes(4, "little")
        good.write_bytes(bytes(data))
        self.rejects(good, mmap, "CSR sections of level 0")

    @pytest.mark.parametrize("mmap", (True, False))
    @pytest.mark.parametrize("field, match", [(5, "node sections"),
                                              (6, "edge sections")],
                             ids=["nodes", "edges"])
    def test_totals_disagree_with_the_header(self, good, mmap, field,
                                             match):
        data = bytearray(good.read_bytes())
        header = self.header(data)
        header[field] += 1
        _HEADER.pack_into(data, 0, *header)
        good.write_bytes(bytes(data))
        self.rejects(good, mmap, match)


# ----------------------------------------------------------------------
# the writer's memory
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["memoryview", "ndarray"])
def test_the_writer_holds_no_copy_of_the_payload(tmp_path, kind):
    """A wide graph whose columns arrive as buffers is written with
    less extra memory than its payload: the bytes stream out in bounded
    chunks, and a column converts one level at a time."""
    import random
    import tracemalloc
    from array import array

    if kind == "ndarray" and not HAVE_NUMPY:
        pytest.skip("needs numpy")
    rng = random.Random(5)
    levels, width, fanout = 40, 2000, 4
    edges = width * fanout
    columns = {
        "locations": [array("i", [0] * width) for _ in range(levels)],
        "stays": [array("i", [-1] * width) for _ in range(levels)],
        "edge_offsets": [array("i", range(0, edges + 1, fanout))
                         for _ in range(levels - 1)],
        "edge_children": [array("i", [rng.randrange(width)
                                      for _ in range(edges)])
                          for _ in range(levels - 1)],
        "edge_probabilities": [array("d", [1.0 / fanout] * edges)
                               for _ in range(levels - 1)],
    }
    if kind == "memoryview":
        columns = {name: [memoryview(level) for level in levels_]
                   for name, levels_ in columns.items()}
    else:
        # int64 index columns, as a numpy caller hands them in.
        columns = {name: [numpy.array(level,
                                      dtype="f8" if level.typecode == "d"
                                      else "i8") for level in levels_]
                   for name, levels_ in columns.items()}
    path = tmp_path / "wide.ctg"
    tracemalloc.start()
    try:
        written = write_ctg(path, location_names=("A",),
                            source_probabilities=[1.0 / width] * width,
                            **columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert written > 2_000_000
    assert peak < written // 2
    with load_ctg(path, verify=True) as view:
        assert view.num_edges == edges * (levels - 1)
        assert list(view.edge_children[3]) == list(
            columns["edge_children"][3])


# ----------------------------------------------------------------------
# batch store mode: nothing big crosses the pipe
# ----------------------------------------------------------------------
def _poison(self):
    raise AssertionError("a graph crossed the worker pipe")


class TestBatchStoreMode:
    def _sequences(self):
        rows = [{"A": 0.6, "B": 0.4}, {"A": 0.5, "C": 0.5},
                {"B": 0.7, "C": 0.3}, {"A": 0.5, "B": 0.5}]
        return [LSequence(rows[i:] + rows[:i]) for i in range(3)]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method for the reduce monkeypatch")
    def test_no_graph_is_pickled(self, tmp_path, monkeypatch):
        from repro.core.ctgraph import CTGraph
        from repro.runtime.batch import clean_many

        monkeypatch.setattr(FlatCTGraph, "__reduce__", _poison,
                            raising=False)
        monkeypatch.setattr(MappedCTGraph, "__reduce__", _poison,
                            raising=False)
        monkeypatch.setattr(CTGraph, "__reduce__", _poison, raising=False)
        store = GraphStore(tmp_path / "store")
        constraints = ConstraintSet([Unreachable("A", "C")])
        result = clean_many(self._sequences(), constraints, workers=2,
                            store=store, start_method="fork")
        assert all(o.ok for o in result)
        assert all(o.ctg_path is not None for o in result)
        assert all(isinstance(o.graph, MappedCTGraph) for o in result)
        again = clean_many(self._sequences(), constraints, workers=2,
                           store=store, start_method="fork")
        assert all(o.cache_hit for o in again)
        for a, b in zip(result, again):
            assert a.graph.materialize() == b.graph.materialize()

    def test_in_process_store_mode(self, tmp_path):
        from repro.runtime.batch import clean_many

        store = GraphStore(tmp_path / "store")
        constraints = ConstraintSet([Unreachable("A", "C")])
        result = clean_many(self._sequences(), constraints, workers=1,
                            store=store)
        assert all(o.ok and not o.cache_hit for o in result)
        assert store.misses == len(result)
        plain = clean_many(self._sequences(), constraints, workers=1,
                           options=CleaningOptions(materialize="flat"))
        for stored, direct in zip(result, plain):
            assert stored.graph.materialize() == direct.graph

    def test_in_process_job_parses_each_entry_once(self, tmp_path,
                                                   monkeypatch):
        import repro.runtime.batch as batch
        import repro.store as store_package
        import repro.store.format as store_format
        import repro.store.graphstore as graphstore
        from repro.runtime.batch import clean_many

        loads = []
        for module in (store_package, store_format, batch, graphstore):
            def counted(path, *args, original=module.load_ctg, **kwargs):
                loads.append(str(path))
                return original(path, *args, **kwargs)
            monkeypatch.setattr(module, "load_ctg", counted)
        constraints = ConstraintSet([Unreachable("A", "C")])
        plain = clean_many(self._sequences(), constraints, workers=1,
                           options=CleaningOptions(materialize="flat"))
        for mmap, backing in ((True, "mmap"), (False, "bytes")):
            store = GraphStore(tmp_path / f"store-{mmap}", mmap=mmap)
            for job in ("misses", "hits"):
                loads.clear()
                result = clean_many(self._sequences(), constraints,
                                    workers=1, store=store)
                # A miss maps the file from the writer's own descriptor
                # and never parses it; a hit opens it once by path.
                if job == "hits":
                    assert len(loads) == len(result)
                elif mmap:
                    assert loads == []
                for stored, direct in zip(result, plain):
                    assert stored.graph.backing == backing
                    assert stored.graph.path == stored.ctg_path
                    assert stored.graph.materialize() == direct.graph
                    stored.graph.close()

    def test_query_plan_rides_the_store(self, tmp_path):
        from repro.runtime.batch import clean_many
        from repro.runtime.plan import QueryPlan

        store = GraphStore(tmp_path / "store")
        constraints = ConstraintSet([Unreachable("A", "C")])
        plan = QueryPlan("STAY 1")
        stored = clean_many(self._sequences(), constraints, workers=1,
                            store=store, query_plan=plan)
        direct = clean_many(self._sequences(), constraints, workers=1,
                            query_plan=plan)
        for a, b in zip(stored, direct):
            assert a.graph is None and a.queries == b.queries

    def test_store_configuration_errors(self, tmp_path):
        from repro.errors import BatchConfigurationError
        from repro.runtime.batch import clean_many

        store = GraphStore(tmp_path / "store")
        constraints = ConstraintSet([])
        sequences = self._sequences()
        with pytest.raises(BatchConfigurationError, match="GraphStore"):
            clean_many(sequences, constraints, store="nope")
        with pytest.raises(BatchConfigurationError, match="nodes"):
            clean_many(sequences, constraints, store=store,
                       options=CleaningOptions(materialize="nodes"))
        with pytest.raises(BatchConfigurationError, match="output"):
            clean_many(sequences, constraints, store=store,
                       options=CleaningOptions(output="x.ctg"))

    def test_store_is_small_to_pickle(self, tmp_path):
        store = GraphStore(tmp_path / "store")
        assert len(pickle.dumps(store)) < 1024


# ----------------------------------------------------------------------
# the no-numpy leg: builds, the codec and sessions never import numpy
# ----------------------------------------------------------------------
class TestPurePythonLeg:
    """Each check runs in a fresh interpreter, whose ``sys.modules``
    shows whether numpy was loaded."""

    SETUP = """
from repro.core.algorithm import CleaningOptions, build_ct_graph
from repro.core.constraints import ConstraintSet, Unreachable
from repro.core.lsequence import LSequence
from repro.queries.session import QuerySession
from repro.store import load_ctg, save_ctg

lsequence = LSequence([{"A": 0.6, "B": 0.4}, {"A": 0.5, "C": 0.5},
                       {"B": 0.7, "C": 0.3}])
constraints = ConstraintSet([Unreachable("A", "C")])
flat = build_ct_graph(lsequence, constraints,
                      CleaningOptions(materialize="flat", backend="numpy"))

def bundle(graph):
    session = QuerySession(graph, backend="numpy")
    return (session.entropy_profile(), session.expected_visit_counts(),
            session.visit_probability("B"), session.top_k_trajectories(2))
"""

    def test_round_trip_without_numpy(self, tmp_path):
        path = tmp_path / "g.ctg"
        found = loaded_after(self.SETUP + f"""
save_ctg(flat, {str(path)!r})
for mmap in (True, False):
    with load_ctg({str(path)!r}, mmap=mmap, verify=True) as view:
        assert view.backing == ("mmap" if mmap else "bytes")
        assert view.materialize() == flat
        assert bundle(view) == bundle(flat)
""")
        assert "numpy" not in found["modules"]

    def test_direct_write_without_numpy(self, tmp_path):
        path = tmp_path / "g.ctg"
        found = loaded_after(self.SETUP + f"""
view = build_ct_graph(lsequence, constraints, CleaningOptions(
    backend="numpy", output={str(path)!r}))
assert view.materialize() == flat
view.close()
with load_ctg({str(path)!r}) as loaded:
    assert bundle(loaded) == bundle(flat)
""")
        assert "numpy" not in found["modules"]


# ----------------------------------------------------------------------
# size predictions (C006 companion)
# ----------------------------------------------------------------------
class TestSizeEstimates:
    def _measured_flat_bytes(self, flat):
        """Deep measurement: the pickled size is a stable lower-ish proxy
        for the resident tuple structure."""
        total = sys.getsizeof(flat)
        for row in (flat.locations + flat.stays + flat.edge_offsets
                    + flat.edge_children + flat.edge_probabilities
                    + (flat.source_probabilities,)):
            total += sys.getsizeof(row)
            total += sum(sys.getsizeof(x) for x in row)
        return total

    def test_flat_estimate_within_2x_of_measured(self):
        rows = [{"A": 0.4, "B": 0.3, "C": 0.3} for _ in range(24)]
        flat = build_ct_graph(LSequence(rows), ConstraintSet(),
                              CleaningOptions(materialize="flat"))
        estimate = flat.estimate_size_bytes()
        measured = self._measured_flat_bytes(flat)
        assert measured / 2 <= estimate <= measured * 2, \
            (estimate, measured)

    def test_ctg_estimate_within_2x_of_file(self, tmp_path):
        from repro.analysis.envelope import estimate_ctg_bytes

        rows = [{"A": 0.4, "B": 0.3, "C": 0.3} for _ in range(24)]
        flat = build_ct_graph(LSequence(rows), ConstraintSet(),
                              CleaningOptions(materialize="flat"))
        path = tmp_path / "g.ctg"
        save_ctg(flat, path)
        node_counts = [flat.level_size(tau) for tau in range(flat.duration)]
        edge_counts = [len(flat.edge_children[tau])
                       for tau in range(flat.duration - 1)]
        estimate = estimate_ctg_bytes(node_counts, edge_counts)
        measured = os.path.getsize(path)
        assert measured / 2 <= estimate <= measured * 2, \
            (estimate, measured)

    def test_analyze_reports_ctg_bytes(self):
        from repro.analysis import analyze

        lsequence, constraints = small_instance()
        report = analyze(constraints, readings=lsequence)
        c006 = [d for d in report if d.code == "C006"]
        assert c006 and c006[0].data["ctg_bytes"] > 0
        assert ".ctg" in c006[0].message


# ----------------------------------------------------------------------
# the JSON exporter satellite
# ----------------------------------------------------------------------
class TestFlatExport:
    def test_flat_and_mapped_dicts_agree(self, tmp_path):
        from repro.io import flatgraph_to_dict, save_ctgraph

        lsequence, constraints = small_instance()
        flat = build_ct_graph(lsequence, constraints,
                              CleaningOptions(materialize="flat"))
        path = tmp_path / "g.ctg"
        view = build_ct_graph(lsequence, constraints,
                              CleaningOptions(output=str(path)))
        payload = flatgraph_to_dict(flat)
        assert payload["format"] == "rfid-ctg/flatgraph@1"
        assert flatgraph_to_dict(view) == payload
        out = tmp_path / "g.json"
        save_ctgraph(view, out)
        assert json.loads(out.read_text()) == payload
        view.close()

    def test_wrong_form_raises_typed_error(self):
        from repro.io import ctgraph_to_dict, flatgraph_to_dict, save_ctgraph

        lsequence, constraints = small_instance()
        node = build_ct_graph(lsequence, constraints,
                              CleaningOptions(materialize="nodes"))
        flat = node.to_flat()
        with pytest.raises(GraphExportError):
            ctgraph_to_dict(flat)
        with pytest.raises(GraphExportError):
            flatgraph_to_dict(node)
        with pytest.raises(GraphExportError):
            save_ctgraph(object(), "nowhere.json")
