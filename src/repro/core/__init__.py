"""The paper's contribution: conditioning trajectory data under constraints.

* :mod:`repro.core.constraints` — DU / TT / LT integrity constraints;
* :mod:`repro.core.lsequence` — readings and probabilistic l-sequences;
* :mod:`repro.core.nodes` — location nodes ``(tau, l, delta, TL)`` and the
  successor relation (Definition 3);
* :mod:`repro.core.ctgraph` — the conditioned-trajectory graph;
* :mod:`repro.core.algorithm` — Algorithm 1 (forward + backward phases);
* :mod:`repro.core.engine` — the compact engine: interned states, memoised
  transition rows, columnar backward sweep (bit-exact, faster);
* :mod:`repro.core.validity` — Definition 2 trajectory validity;
* :mod:`repro.core.naive` — exact conditioning by enumeration (baseline);
* :mod:`repro.core.sampling` — drawing valid trajectories from a ct-graph.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.core.algorithm import (
        CleaningOptions,
        CleaningStats,
        build_ct_graph,
        clean,
    )
    from repro.core.engine import EngineCache, build_ct_graph_compact
    from repro.core.constraints import (
        ConstraintSet,
        Latency,
        TravelingTime,
        Unreachable,
    )
    from repro.core.ctgraph import CTGraph, CTNode
    from repro.core.lsequence import LSequence, Reading, ReadingSequence
    from repro.core.naive import NaiveConditioner
    from repro.core.sampling import TrajectorySampler
    from repro.core.validity import is_valid_trajectory

__all__ = [
    "ConstraintSet",
    "Unreachable",
    "TravelingTime",
    "Latency",
    "Reading",
    "ReadingSequence",
    "LSequence",
    "CTGraph",
    "CTNode",
    "CleaningOptions",
    "CleaningStats",
    "build_ct_graph",
    "build_ct_graph_compact",
    "EngineCache",
    "clean",
    "NaiveConditioner",
    "TrajectorySampler",
    "is_valid_trajectory",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.core.algorithm": (
        "CleaningOptions", "CleaningStats", "build_ct_graph", "clean",
    ),
    "repro.core.engine": ("EngineCache", "build_ct_graph_compact"),
    "repro.core.constraints": (
        "ConstraintSet", "Latency", "TravelingTime", "Unreachable",
    ),
    "repro.core.ctgraph": ("CTGraph", "CTNode"),
    "repro.core.lsequence": ("LSequence", "Reading", "ReadingSequence"),
    "repro.core.naive": ("NaiveConditioner",),
    "repro.core.sampling": ("TrajectorySampler",),
    "repro.core.validity": ("is_valid_trajectory",),
})
