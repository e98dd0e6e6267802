"""Serialization: save/load every artefact of the pipeline.

JSON for structured artefacts (buildings, constraints, readings, ground
truth, ct-graphs), ``.npz`` for the dense detection matrices, and Graphviz
DOT export for ct-graph visualisation.  Everything round-trips:
``load_x(save_x(value)) == value`` is covered by the test suite.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.io.archives import load_dataset, save_dataset
    from repro.io.graphs import (
        ctgraph_to_dict,
        ctgraph_to_dot,
        flatgraph_to_dict,
        save_ctgraph,
    )
    from repro.io.jsonio import (
        load_building,
        load_constraints,
        load_readers,
        load_readings,
        load_trajectory,
        save_building,
        save_constraints,
        save_readers,
        save_readings,
        save_trajectory,
    )
    from repro.io.matrices import load_matrix, save_matrix

__all__ = [
    "save_building", "load_building",
    "save_constraints", "load_constraints",
    "save_readings", "load_readings",
    "save_readers", "load_readers",
    "save_trajectory", "load_trajectory",
    "save_matrix", "load_matrix",
    "save_dataset", "load_dataset",
    "ctgraph_to_dict", "flatgraph_to_dict", "ctgraph_to_dot", "save_ctgraph",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.io.archives": ("load_dataset", "save_dataset"),
    "repro.io.graphs": (
        "ctgraph_to_dict", "ctgraph_to_dot", "flatgraph_to_dict",
        "save_ctgraph",
    ),
    "repro.io.jsonio": (
        "load_building", "load_constraints", "load_readers", "load_readings",
        "load_trajectory", "save_building", "save_constraints", "save_readers",
        "save_readings", "save_trajectory",
    ),
    "repro.io.matrices": ("load_matrix", "save_matrix"),
})
