"""Section 6.7: ct-graph size per constraint configuration.

The paper reports ~25 MB per 120-minute trajectory with DU+LT+TT versus
~640 kB with DU only — a factor of roughly 40.  The absolute bytes depend
on the representation (theirs vs CPython objects), but the shape — TT
constraints inflating the graph via the ``TL`` state — must reproduce.
With dead ``TL`` entries pruned (DESIGN.md §3 item 9) the factor here is
a few-fold, not the paper's 40 (EXPERIMENTS.md, Section 6.7).
"""

from __future__ import annotations

import pytest

from repro.core.algorithm import build_ct_graph
from repro.core.lsequence import LSequence
from repro.experiments.harness import CONSTRAINT_CONFIGS
from repro.experiments.report import format_table

_CONFIG_ITEMS = list(CONSTRAINT_CONFIGS.items())


@pytest.mark.parametrize("config_name,kinds", _CONFIG_ITEMS,
                         ids=[name for name, _ in _CONFIG_ITEMS])
def test_graph_size(benchmark, syn1, constraint_cache, config_name, kinds):
    duration = syn1.durations[-1]
    trajectory = syn1.trajectories[duration][0]
    lsequence = LSequence.from_readings(trajectory.readings, syn1.prior)
    constraints = constraint_cache(syn1, kinds)

    graph = benchmark.pedantic(
        build_ct_graph, args=(lsequence, constraints),
        rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info["nodes"] = graph.num_nodes
    benchmark.extra_info["edges"] = graph.num_edges
    benchmark.extra_info["kilobytes"] = graph.estimate_size_bytes() // 1024


def test_size_report(benchmark, syn1, constraint_cache, capsys):
    duration = syn1.durations[-1]

    def measure():
        rows = []
        for config_name, kinds in _CONFIG_ITEMS:
            constraints = constraint_cache(syn1, kinds)
            sizes, nodes, edges = [], [], []
            for trajectory in syn1.trajectories[duration]:
                lsequence = LSequence.from_readings(trajectory.readings,
                                                    syn1.prior)
                graph = build_ct_graph(lsequence, constraints)
                sizes.append(graph.estimate_size_bytes())
                nodes.append(graph.num_nodes)
                edges.append(graph.num_edges)
            count = len(sizes)
            rows.append((config_name, duration,
                         sum(nodes) // count, sum(edges) // count,
                         sum(sizes) // count // 1024))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1,
                              warmup_rounds=0)
    with capsys.disabled():
        print()
        print("=== Section 6.7: average ct-graph size on SYN1, longest "
              "duration ===")
        print(format_table(
            ["config", "duration", "nodes", "edges", "size_kB"], rows))

    sizes = {row[0]: row[4] for row in rows}
    assert sizes["CTG(DU,LT,TT)"] >= sizes["CTG(DU)"], \
        "TT graphs must not be smaller than DU-only graphs"
