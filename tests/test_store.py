"""The binary graph store: ``.ctg`` round-trips, mmap parity, the cache.

Four layers are pinned here:

* the codec — build → ``save_ctg`` → ``load_ctg`` reproduces the exact
  :class:`FlatCTGraph` (hypothesis, both engines x both backends, mmap
  and bytes backings), and every structural corruption raises a typed
  :class:`StoreError` rather than an ``AttributeError``/``struct.error``;
* the engine sink — ``CleaningOptions(output=...)`` writes the arrays
  straight to disk and the served view answers every ``QuerySession``
  bundle identically to the in-memory graph;
* the cache — :class:`GraphStore` keys by problem content (sensitive to
  candidates, constraints, policy and backend; stable across runs), and
  ``clean_many(..., store=...)`` ships only paths over the worker pipe;
* the advisor's ``.ctg`` size prediction, pinned within 2x of measured.
"""

import json
import math
import multiprocessing
import os
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.core.algorithm import CleaningOptions, build_ct_graph
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
from repro.store import (
    CTG_MAGIC,
    GraphStore,
    MappedCTGraph,
    content_key,
    load_ctg,
    save_ctg,
)

try:
    import numpy  # noqa: F401 - availability probe
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - the no-numpy CI leg
    HAVE_NUMPY = False

LOCATIONS = ("A", "B", "C", "D")
locations = st.sampled_from(LOCATIONS)

ENGINES = ("reference", "compact")
BACKENDS = ("python", "numpy") if HAVE_NUMPY else ("python",)


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


def within_gate(left, right):
    """Equal structure, every float within the kernels' 1e-12 gate."""
    if isinstance(left, float) and isinstance(right, float):
        return math.isclose(left, right, rel_tol=1e-12, abs_tol=1e-12)
    if isinstance(left, dict) and isinstance(right, dict):
        return (list(left) == list(right)
                and all(within_gate(left[key], right[key]) for key in left))
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        return (len(left) == len(right)
                and all(within_gate(a, b) for a, b in zip(left, right)))
    return left == right


class TestMappedColumns:
    """``load_ctg`` serves every column as a ``memoryview`` cast of the
    file, which the numpy kernels wrap without copying."""

    @staticmethod
    def wide_graph():
        lsequence = LSequence([{"A": 0.4, "B": 0.35, "C": 0.25}
                               for _ in range(30)])
        constraints = ConstraintSet([Unreachable("A", "C"), Latency("B", 2)])
        return build_ct_graph(lsequence, constraints,
                              CleaningOptions(materialize="flat"))

    @pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")
    def test_kernels_share_the_mapped_bytes(self, tmp_path):
        import numpy

        flat = self.wide_graph()
        path = tmp_path / "g.ctg"
        save_ctg(flat, path)
        with load_ctg(path) as view:
            columns = (view.locations + view.edge_offsets
                       + view.edge_children + view.edge_probabilities
                       + (view.source_probabilities,))
            assert all(type(column) is memoryview for column in columns)
            mapped = numpy.frombuffer(view.edge_children[0].obj,
                                      dtype=numpy.uint8)
            views = kernels.GraphViews(view)
            children, probabilities, _, _, _ = views.edge_level(3)
            for array in (children, probabilities, views.source,
                          views.level_lids(3)):
                assert numpy.shares_memory(array, mapped)
            assert within_gate(query_bundle(view, "numpy"),
                               query_bundle(view.materialize(), "numpy"))

    @pytest.mark.parametrize("mmap", (True, False))
    def test_resaving_a_mapped_view_is_byte_identical(self, tmp_path, mmap):
        first, second = tmp_path / "first.ctg", tmp_path / "second.ctg"
        save_ctg(self.wide_graph(), first)
        with load_ctg(first, mmap=mmap) as view:
            save_ctg(view, second)
        assert second.read_bytes() == first.read_bytes()


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
            lsequence, constraints, CleaningOptions(backend="numpy")) \
            or not HAVE_NUMPY
        assert base != content_key(
            lsequence, constraints,
            CleaningOptions(truncated_stay_policy="strict"))
        assert base != content_key(lsequence, constraints, extra="v2")
        other = LSequence([{"A": 0.6, "B": 0.4}])
        assert base != content_key(other, constraints)
        # Engine choice is excluded: both engines are bit-exact.
        assert base == content_key(
            lsequence, constraints, CleaningOptions(engine="compact"))


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
# the no-numpy leg
# ----------------------------------------------------------------------
class TestPurePythonLeg:
    def test_round_trip_without_numpy(self, tmp_path, monkeypatch):
        lsequence, constraints = small_instance()
        flat = build_ct_graph(lsequence, constraints,
                              CleaningOptions(materialize="flat"))
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        path = tmp_path / "g.ctg"
        save_ctg(flat, path)
        for mmap in (True, False):
            with load_ctg(path, mmap=mmap, verify=True) as view:
                assert view.backing == ("mmap" if mmap else "bytes")
                assert view.materialize() == flat
                assert query_bundle(view) == query_bundle(flat)

    def test_direct_write_without_numpy(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        lsequence, constraints = small_instance()
        flat = build_ct_graph(lsequence, constraints,
                              CleaningOptions(materialize="flat"))
        path = tmp_path / "g.ctg"
        view = build_ct_graph(lsequence, constraints,
                              CleaningOptions(output=str(path)))
        assert view.materialize() == flat
        view.close()


# ----------------------------------------------------------------------
# size predictions (C006 companion)
# ----------------------------------------------------------------------
class TestSizeEstimates:
    def _measured_flat_bytes(self, flat):
        """Deep measurement: the pickled size is a stable lower-ish proxy
        for the resident tuple structure."""
        import sys

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
