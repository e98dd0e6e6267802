"""Tests for the CTGraph structure and its query primitives."""

import math
import pickle
import subprocess
import sys

import pytest

from repro.core.algorithm import build_ct_graph
from repro.core.constraints import ConstraintSet, Unreachable
from repro.core.ctgraph import NodeWebGraph
from repro.core.lsequence import LSequence
from repro.errors import GraphInvariantError, QueryError, ReproError
from repro.queries import (
    TrajectoryQuery,
    entropy_profile,
    execute,
    stay_query,
    top_k_trajectories,
)


@pytest.fixture
def diamond_graph():
    """Two middle alternatives converging: A -> {B, C} -> D."""
    ls = LSequence([{"A": 1.0}, {"B": 0.75, "C": 0.25}, {"D": 1.0}])
    return build_ct_graph(ls, ConstraintSet())


class TestStructure:
    def test_levels(self, diamond_graph):
        assert diamond_graph.duration == 3
        assert len(diamond_graph.level(0)) == 1
        assert len(diamond_graph.level(1)) == 2
        assert len(diamond_graph.level(2)) == 1

    def test_bad_level_rejected(self, diamond_graph):
        with pytest.raises(QueryError):
            diamond_graph.level(3)
        with pytest.raises(QueryError):
            diamond_graph.level(-1)

    def test_sources_and_targets(self, diamond_graph):
        assert [n.location for n in diamond_graph.sources] == ["A"]
        assert [n.location for n in diamond_graph.targets] == ["D"]

    def test_counts(self, diamond_graph):
        assert diamond_graph.num_nodes == 4
        assert diamond_graph.num_edges == 4

    def test_nodes_iterates_level_order(self, diamond_graph):
        taus = [node.tau for node in diamond_graph.nodes()]
        assert taus == sorted(taus)

    def test_locations_at(self, diamond_graph):
        assert diamond_graph.locations_at(1) == ("B", "C")

    def test_successor_for(self, diamond_graph):
        (source,) = diamond_graph.sources
        node_b = source.successor_for("B")
        assert node_b is not None and node_b.location == "B"
        assert source.successor_for("Z") is None

    def test_successor_index_tracks_edge_replacement(self, diamond_graph):
        (source,) = diamond_graph.sources
        node_b = source.successor_for("B")
        assert source.successor_for("C") is not None
        # Rebinding the edges dict (what the backward pass does) must
        # invalidate the lazy per-location index.
        source.edges = {node_b: 1.0}
        assert source.successor_for("C") is None
        assert source.successor_for("B") is node_b

    def test_repr_mentions_shape(self, diamond_graph):
        assert "duration=3" in repr(diamond_graph)
        (source,) = diamond_graph.sources
        assert "loc='A'" in repr(source)


class TestProbabilities:
    def test_source_probability_of_foreign_node_is_zero(self, diamond_graph):
        target = diamond_graph.targets[0]
        assert diamond_graph.source_probability(target) == 0.0

    def test_path_enumeration(self, diamond_graph):
        paths = dict(diamond_graph.paths())
        assert paths[("A", "B", "D")] == pytest.approx(0.75)
        assert paths[("A", "C", "D")] == pytest.approx(0.25)

    def test_trajectory_probability_length_check(self, diamond_graph):
        with pytest.raises(QueryError):
            diamond_graph.trajectory_probability(("A", "B"))

    def test_unknown_start_scores_zero(self, diamond_graph):
        assert diamond_graph.trajectory_probability(("Z", "B", "D")) == 0.0

    def test_graph_converts_once_across_queries(self, diamond_graph,
                                                monkeypatch):
        conversions = []
        to_flat = NodeWebGraph.to_flat
        monkeypatch.setattr(
            NodeWebGraph, "to_flat",
            lambda graph: conversions.append(graph) or to_flat(graph))
        for tau in range(diamond_graph.duration):
            diamond_graph.location_marginal(tau)
        stay_query(diamond_graph, 1)
        entropy_profile(diamond_graph)
        top_k_trajectories(diamond_graph, 2)
        TrajectoryQuery("? B ?").probability(diamond_graph)
        execute(diamond_graph, "BEST")
        assert conversions == [diamond_graph]
        # The cached session is not pickled: a copy converts afresh.
        clone = pickle.loads(pickle.dumps(diamond_graph))
        assert clone.location_marginal(1) == diamond_graph.location_marginal(1)
        assert conversions == [diamond_graph, clone]

    def test_location_marginal_sums_to_one(self, diamond_graph):
        for tau in range(diamond_graph.duration):
            marginal = diamond_graph.location_marginal(tau)
            assert math.fsum(marginal.values()) == pytest.approx(1.0)

    def test_location_marginal_merges_node_states(self):
        # Two nodes at the same location (different histories) merge in the
        # location marginal.
        ls = LSequence([{"A": 0.5, "B": 0.5}, {"C": 1.0}, {"C": 1.0}])
        graph = build_ct_graph(ls, ConstraintSet())
        marginal = graph.location_marginal(1)
        assert marginal == {"C": pytest.approx(1.0)}


class TestValidateAndSize:
    def test_validate_passes_for_algorithm_output(self, diamond_graph):
        diamond_graph.validate()

    def test_validate_rejects_broken_source_distribution(self, diamond_graph):
        (source,) = diamond_graph.sources
        diamond_graph._source_probabilities[source] = 0.5
        with pytest.raises(GraphInvariantError, match="sum to 0.5"):
            diamond_graph.validate()
        # The historical contract: assertion-catching callers still work.
        with pytest.raises(AssertionError):
            diamond_graph.validate()

    def test_validate_rejects_broken_edge_distribution(self, diamond_graph):
        (source,) = diamond_graph.sources
        child = next(iter(source.edges))
        source.edges[child] += 0.5
        with pytest.raises(GraphInvariantError, match="outgoing"):
            diamond_graph.validate()

    def test_validate_rejects_orphaned_node(self, diamond_graph):
        node = diamond_graph.level(1)[0]
        node.parents.clear()
        with pytest.raises(GraphInvariantError, match="unreachable"):
            diamond_graph.validate()

    def test_validate_survives_assert_stripping(self):
        # Regression for the `python -O` hole: the invariant checks must be
        # real raises, not asserts, so they still fire under PYTHONOPTIMIZE.
        script = (
            "from repro.core.algorithm import build_ct_graph\n"
            "from repro.core.constraints import ConstraintSet\n"
            "from repro.core.lsequence import LSequence\n"
            "from repro.errors import GraphInvariantError\n"
            "assert True is False  # proves -O stripped asserts\n"
            "ls = LSequence([{'A': 1.0}, {'B': 0.5, 'C': 0.5}, {'D': 1.0}])\n"
            "graph = build_ct_graph(ls, ConstraintSet())\n"
            "(source,) = graph.sources\n"
            "graph._source_probabilities[source] = 0.25\n"
            "try:\n"
            "    graph.validate()\n"
            "except GraphInvariantError:\n"
            "    print('RAISED')\n"
        )
        import os
        from pathlib import Path

        import repro

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "RAISED"

    def test_stats_declared_on_every_graph(self, diamond_graph):
        # Algorithm output carries its counters...
        assert diamond_graph.stats is not None
        assert diamond_graph.stats.nodes_created == 4
        # ...and hand-built graphs have the attribute too (None), instead
        # of raising AttributeError.
        bare = type(diamond_graph)([[], []], {})
        assert bare.stats is None

    def test_pickle_round_trip_preserves_probabilities(self):
        ls = LSequence([{"A": 0.5, "B": 0.5}, {"A": 0.3, "C": 0.7},
                        {"B": 1.0}, {"A": 0.4, "B": 0.6}])
        graph = build_ct_graph(ls, ConstraintSet([Unreachable("A", "A")]))
        clone = pickle.loads(pickle.dumps(graph))
        assert list(clone.paths()) == list(graph.paths())
        assert clone.stats == graph.stats
        clone.validate()

    def test_pickle_handles_long_graphs(self):
        # Default recursive pickling would exceed the recursion limit here;
        # the flat __getstate__ must not.
        duration = 1200
        ls = LSequence([{"A": 0.5, "B": 0.5}] * duration)
        graph = build_ct_graph(ls, ConstraintSet())
        clone = pickle.loads(pickle.dumps(graph))
        assert clone.num_nodes == graph.num_nodes
        assert clone.num_edges == graph.num_edges
        assert clone.location_marginal(duration // 2) \
            == graph.location_marginal(duration // 2)

    def test_size_estimate_positive_and_monotone(self):
        small = build_ct_graph(
            LSequence([{"A": 1.0}, {"B": 1.0}]), ConstraintSet())
        large = build_ct_graph(
            LSequence([{"A": 0.5, "B": 0.5}] * 20), ConstraintSet())
        assert 0 < small.estimate_size_bytes() < large.estimate_size_bytes()

    def test_num_valid_trajectories_counts_paths(self):
        graph = build_ct_graph(LSequence([{"A": 0.5, "B": 0.5}] * 10),
                               ConstraintSet())
        assert graph.num_valid_trajectories() == 2 ** 10


class TestNetworkxExport:
    @pytest.fixture(autouse=True)
    def _needs_networkx(self):
        pytest.importorskip("networkx")

    def test_structure_round_trips(self, diamond_graph):
        digraph = diamond_graph.to_networkx()
        assert digraph.number_of_nodes() == diamond_graph.num_nodes
        assert digraph.number_of_edges() == diamond_graph.num_edges
        assert digraph.graph["duration"] == diamond_graph.duration

    def test_attributes(self, diamond_graph):
        digraph = diamond_graph.to_networkx()
        sources = [n for n, data in digraph.nodes(data=True)
                   if data["source_probability"] > 0]
        assert len(sources) == 1
        locations = {data["location"]
                     for _, data in digraph.nodes(data=True)}
        assert locations == {"A", "B", "C", "D"}
        for _, _, data in digraph.edges(data=True):
            assert 0.0 < data["probability"] <= 1.0

    def test_edge_probabilities_normalised(self, diamond_graph):
        digraph = diamond_graph.to_networkx()
        for node in digraph.nodes:
            out = [data["probability"]
                   for _, _, data in digraph.out_edges(node, data=True)]
            if out:
                assert sum(out) == pytest.approx(1.0)


def test_export_without_networkx_names_the_graph_extra(diamond_graph,
                                                      monkeypatch):
    monkeypatch.setitem(sys.modules, "networkx", None)
    with pytest.raises(ReproError, match=r"repro\[graph\]"):
        diamond_graph.to_networkx()
