"""Every ``backend`` value against the python level sweep, and every
engine's store build against ``save_ctg``.

``CleaningOptions``, ``QuerySession`` and every CLI ``--backend`` accept
``"auto"``, ``"python"`` and ``"numpy"``, and batch builds and sessions
run the one python sweep for each.  On the hypothesis instances that
pin the engines (``tests/test_engine_vs_reference.py``) every value must
give the ``"python"`` outputs exactly: a flat build with its stats
counters, a store build's file bytes, the error an inconsistent instance
raises, and a session's answers.  A store build writes its per-level
rows straight into the ``.ctg`` layout; its file must be, byte for
byte, what ``save_ctg`` writes for the flat build of either engine.
"""

import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

from hypothesis import example, given, settings

import repro.core.algorithm as algorithm_module
import repro.core.engine as engine_module
from repro.core.algorithm import BACKENDS, CleaningOptions, build_ct_graph
from repro.core.constraints import ConstraintSet, Latency, Unreachable
from repro.core.lsequence import LSequence
from repro.errors import InconsistentReadingsError
from repro.queries.session import QuerySession
from repro.store import save_ctg

from tests.test_engine_vs_reference import (
    LOCATIONS,
    constraint_sets,
    lsequences,
)
from tests.test_store import query_bundle


def _flat(lsequence, constraints, backend):
    return build_ct_graph(lsequence, constraints, CleaningOptions(
        materialize="flat", backend=backend))


def _build_outputs(lsequence, constraints, backend, root):
    """A flat build, its stats counters and a store build's file bytes
    under ``backend`` -- or the error type the build raises.  The
    engine's clock is stopped so the stats block, which carries the
    phase timings, is the same bytes on every build."""
    try:
        flat = _flat(lsequence, constraints, backend)
    except InconsistentReadingsError as error:
        return type(error)
    flat.validate()
    path = Path(root) / f"{backend}.ctg"
    with mock.patch.object(engine_module, "time",
                           SimpleNamespace(perf_counter=lambda: 0.0)):
        build_ct_graph(lsequence, constraints, CleaningOptions(
            backend=backend, output=str(path))).close()
    return flat, flat.stats, path.read_bytes()


def _session_answers(graph, backend):
    """``query_bundle`` plus the raw sweeps, span windows over every
    location and one the graph never mentions, and a longer top-k."""
    session = QuerySession(graph, backend=backend)
    last = graph.duration - 1
    windows = [(0, 0), (0, last), (last, last)]
    if last >= 2:
        windows.append((1, last - 1))
    return (
        query_bundle(graph, backend),
        session.alphas(),
        session._best_suffixes(),
        {(location, start, end):
         session.span_probability(location, start, end)
         for location in LOCATIONS + ("Z",) for start, end in windows},
        session.visit_probability("Z"),
        session.top_k_trajectories(4),
    )


class TestEngineParity:
    @settings(max_examples=150, deadline=None)
    @given(lsequences(), constraint_sets())
    def test_flat_builds_bit_exact(self, lsequence, constraints):
        with tempfile.TemporaryDirectory() as root:
            expected = _build_outputs(lsequence, constraints, "python", root)
            for backend in BACKENDS:
                assert _build_outputs(lsequence, constraints, backend,
                                      root) == expected


class TestSessionParity:
    @settings(max_examples=75, deadline=None)
    @given(lsequences(), constraint_sets())
    def test_query_parity_on_random_instances(self, lsequence, constraints):
        try:
            graph = _flat(lsequence, constraints, "python")
        except InconsistentReadingsError:
            return
        expected = _session_answers(graph, "python")
        for backend in BACKENDS:
            built = _flat(lsequence, constraints, backend)
            assert _session_answers(built, backend) == expected


class TestStoreBytes:
    """A store build's file equals ``save_ctg`` of the flat build, on
    both engines, with their clocks stopped (the stats block carries the
    phase timings).  The examples cover a one-level graph, single-node
    levels and levels whose ``int32`` sections have an odd item count,
    so they end on padding."""

    @settings(max_examples=100, deadline=None)
    @given(lsequences(), constraint_sets())
    @example(LSequence([{"A": 1.0}]), ConstraintSet())
    @example(LSequence([{"A": 0.3, "B": 0.7}, {"C": 1.0}, {"C": 1.0},
                        {"A": 0.2, "B": 0.3, "D": 0.5}]),
             ConstraintSet([Latency("C", 2)]))
    @example(LSequence([{"A": 0.5, "B": 0.25, "C": 0.25}] * 5),
             ConstraintSet([Unreachable("A", "C"), Latency("B", 3)]))
    def test_store_bytes_equal_the_saved_flat_build(self, lsequence,
                                                    constraints):
        clock = SimpleNamespace(perf_counter=lambda: 0.0)
        with tempfile.TemporaryDirectory() as root, \
                mock.patch.object(engine_module, "time", clock), \
                mock.patch.object(algorithm_module, "time", clock):
            for engine in ("reference", "compact"):
                try:
                    flat = build_ct_graph(lsequence, constraints,
                                          CleaningOptions(engine=engine,
                                                          materialize="flat"))
                except InconsistentReadingsError:
                    return
                saved = Path(root) / f"{engine}-saved.ctg"
                stored = Path(root) / f"{engine}-stored.ctg"
                save_ctg(flat, saved)
                with build_ct_graph(lsequence, constraints, CleaningOptions(
                        engine=engine, output=str(stored))) as view:
                    assert view.materialize() == flat
                assert stored.read_bytes() == saved.read_bytes()
