"""Exporting ct-graphs: JSON archives and Graphviz DOT.

A serialized ct-graph is self-contained: node states, edges with
conditioned probabilities, and source probabilities.  The JSON form feeds
downstream tooling (and the Lahar-style warehousing the paper points to);
the DOT form is for eyeballing small graphs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

from repro.core.ctgraph import CTGraph
from repro.errors import GraphExportError

__all__ = ["ctgraph_to_dict", "flatgraph_to_dict", "save_ctgraph",
           "ctgraph_to_dot"]

PathLike = Union[str, Path]


def _is_flat_form(graph: object) -> bool:
    """Whether ``graph`` exposes the columnar (flat) graph surface.

    Duck-typed on the column attributes rather than ``isinstance`` so
    mmap-backed views (:class:`~repro.store.MappedCTGraph`) and
    :class:`~repro.core.flatgraph.FlatCTGraph` are both accepted.
    """
    return all(hasattr(graph, name) for name in
               ("location_names", "locations", "stays", "edge_offsets",
                "edge_children", "edge_probabilities",
                "source_probabilities"))


def ctgraph_to_dict(graph: CTGraph) -> Dict:
    """The JSON-ready representation of a finished ct-graph.

    Nodes get dense ids level by level; states are stored explicitly so
    the archive is interpretable without this library.  Wants the node
    form — hand flat/mmap graphs to :func:`flatgraph_to_dict` (or
    :func:`save_ctgraph`, which dispatches on the form).
    """
    if not isinstance(graph, CTGraph):
        raise GraphExportError(
            f"ctgraph_to_dict wants the node-form CTGraph, got "
            f"{type(graph).__name__}; use flatgraph_to_dict for "
            f"flat/mmap graphs")
    ids = {node: index for index, node in enumerate(graph.nodes())}
    return {
        "format": "rfid-ctg/ctgraph@1",
        "duration": graph.duration,
        "nodes": [
            {
                "id": ids[node],
                "tau": node.tau,
                "location": node.location,
                "stay": node.stay,
                "departures": [[t, l] for t, l in node.departures],
            }
            for node in graph.nodes()
        ],
        "edges": [
            {"from": ids[node], "to": ids[child], "p": probability}
            for node in graph.nodes()
            for child, probability in node.edges.items()
        ],
        "sources": [
            {"id": ids[node], "p": graph.source_probability(node)}
            for node in graph.sources
        ],
    }


def flatgraph_to_dict(graph) -> Dict:
    """The JSON-ready representation of a columnar (flat) ct-graph.

    Accepts :class:`~repro.core.flatgraph.FlatCTGraph` or any
    column-compatible view (an mmap-backed
    :class:`~repro.store.MappedCTGraph` works unchanged).  The layout
    mirrors the in-memory columns — per-level arrays rather than per-node
    records — so the archive is a direct JSON transliteration of the
    ``.ctg`` binary sections (stays stay ``None``, not ``-1``).
    """
    if isinstance(graph, CTGraph) or not _is_flat_form(graph):
        raise GraphExportError(
            f"flatgraph_to_dict wants the columnar graph form "
            f"(FlatCTGraph or a MappedCTGraph view), got "
            f"{type(graph).__name__}; use ctgraph_to_dict for the node "
            f"form")
    duration = graph.duration
    return {
        "format": "rfid-ctg/flatgraph@1",
        "duration": duration,
        "location_names": list(graph.location_names),
        "locations": [list(graph.locations[tau])
                      for tau in range(duration)],
        "stays": [list(graph.stays[tau]) for tau in range(duration)],
        "edge_offsets": [list(graph.edge_offsets[tau])
                         for tau in range(duration - 1)],
        "edge_children": [list(graph.edge_children[tau])
                          for tau in range(duration - 1)],
        "edge_probabilities": [list(graph.edge_probabilities[tau])
                               for tau in range(duration - 1)],
        "source_probabilities": list(graph.source_probabilities),
    }


def save_ctgraph(graph, path: PathLike) -> None:
    """Write a ct-graph archive as JSON — node or flat form.

    Dispatches on the graph's form: a :class:`CTGraph` archives through
    :func:`ctgraph_to_dict`, a flat graph or mmap view through
    :func:`flatgraph_to_dict`.  Anything else raises
    :class:`~repro.errors.GraphExportError`.
    """
    if isinstance(graph, CTGraph):
        payload = ctgraph_to_dict(graph)
    elif _is_flat_form(graph):
        payload = flatgraph_to_dict(graph)
    else:
        raise GraphExportError(
            f"save_ctgraph wants a CTGraph, a FlatCTGraph, or a "
            f"column-compatible view, got {type(graph).__name__}")
    Path(path).write_text(json.dumps(payload))


def ctgraph_to_dot(graph: CTGraph, max_nodes: int = 400) -> str:
    """A Graphviz DOT rendering of the graph (small graphs only).

    Raises ``ValueError`` for graphs above ``max_nodes`` — DOT output for
    huge graphs helps nobody.
    """
    if not isinstance(graph, CTGraph):
        raise GraphExportError(
            f"ctgraph_to_dot wants the node-form CTGraph, got "
            f"{type(graph).__name__}; materialize() a flat/mmap graph "
            f"first if you really want DOT")
    if graph.num_nodes > max_nodes:
        raise ValueError(
            f"graph has {graph.num_nodes} nodes; DOT export is capped at "
            f"{max_nodes} (raise max_nodes explicitly if you mean it)")
    ids = {node: index for index, node in enumerate(graph.nodes())}
    sources = set(graph.sources)
    lines = ["digraph ctgraph {", "  rankdir=LR;", "  node [shape=box];"]
    for node in graph.nodes():
        stay = "⊥" if node.stay is None else str(node.stay)
        label = f"t={node.tau}\\n{node.location}\\nstay={stay}"
        if node.departures:
            tl = ",".join(f"({t},{l})" for t, l in node.departures)
            label += f"\\nTL={tl}"
        extra = ""
        if node in sources:
            extra = (", style=filled, fillcolor=lightblue, xlabel=\""
                     f"{graph.source_probability(node):.3f}\"")
        lines.append(f'  n{ids[node]} [label="{label}"{extra}];')
    for node in graph.nodes():
        for child, probability in node.edges.items():
            lines.append(
                f'  n{ids[node]} -> n{ids[child]} '
                f'[label="{probability:.3f}"];')
    lines.append("}")
    return "\n".join(lines)
