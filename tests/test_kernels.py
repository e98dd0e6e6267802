"""Every ``backend`` value against the python level sweep.

``CleaningOptions``, ``QuerySession`` and every CLI ``--backend`` accept
``"auto"``, ``"python"`` and ``"numpy"``, and batch builds and sessions
run the one python sweep for each.  On the hypothesis instances that
pin the engines (``tests/test_engine_vs_reference.py``) every value must
give the ``"python"`` outputs exactly: a flat build with its stats
counters, a store build's file bytes, the error an inconsistent instance
raises, and a session's answers.
"""

import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

from hypothesis import given, settings

import repro.core.engine as engine_module
from repro.core.algorithm import BACKENDS, CleaningOptions, build_ct_graph
from repro.errors import InconsistentReadingsError
from repro.queries.session import QuerySession

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
