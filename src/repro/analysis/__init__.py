"""Static pre-flight analysis of constraints, maps and readings.

The cleaning semantics silently degenerates when the stated integrity
constraints are contradictory or dead: conditioning on an unsatisfiable
set zeroes *all* trajectory mass, and Algorithm 1 only finds out during
(or at the end of) an expensive forward/backward pass.  This package puts
a cheap validation/planning stage in front of the probabilistic stage:

>>> from repro import ConstraintSet, Latency, Unreachable
>>> from repro.analysis import analyze
>>> report = analyze(ConstraintSet([Unreachable("A", "A"), Latency("A", 2)]))
>>> report.has_errors
True
>>> print(report.errors[0].code)
C001

Three layers expose it: this API (:func:`analyze`), the ``rfid-ctg
analyze`` CLI subcommand (``--strict`` exits 1 on ERROR, ``--advise``
adds C010's size estimate), and the opt-in ``precheck`` option of
:class:`repro.core.algorithm.CleaningOptions`.  The abstract-
interpretation layer (:mod:`repro.analysis.envelope`) bounds graph
widths and sizes (C007-C010); :func:`repro.analysis.advisor.advise`
turns those bounds into an :class:`EngineAdvice` size estimate.  No
cleaning run consults it.  ``docs/analysis.md`` documents every rule
code.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.analysis.advisor import EngineAdvice, advise
    from repro.analysis.analyzer import RULES, ZERO_MASS_RULE, RuleSpec, analyze
    from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity
    from repro.analysis.envelope import (
        AbstractState,
        ConstraintEnvelope,
        DepartureInterval,
        estimate_ctg_bytes,
        estimate_graph_bytes,
    )
    from repro.analysis.precheck import first_dead_timestep, predict_zero_mass
    from repro.analysis.reachability import ReachabilityIndex, location_universe
    from repro.analysis.rules import AnalysisContext, ctgraph_size_bounds

__all__ = [
    "AbstractState",
    "AnalysisContext",
    "AnalysisReport",
    "ConstraintEnvelope",
    "DepartureInterval",
    "Diagnostic",
    "EngineAdvice",
    "ReachabilityIndex",
    "RuleSpec",
    "RULES",
    "Severity",
    "ZERO_MASS_RULE",
    "advise",
    "analyze",
    "ctgraph_size_bounds",
    "estimate_ctg_bytes",
    "estimate_graph_bytes",
    "first_dead_timestep",
    "location_universe",
    "predict_zero_mass",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.analysis.advisor": ("EngineAdvice", "advise"),
    "repro.analysis.analyzer": (
        "RULES", "ZERO_MASS_RULE", "RuleSpec", "analyze",
    ),
    "repro.analysis.diagnostics": ("AnalysisReport", "Diagnostic", "Severity"),
    "repro.analysis.envelope": (
        "AbstractState", "ConstraintEnvelope", "DepartureInterval",
        "estimate_ctg_bytes", "estimate_graph_bytes",
    ),
    "repro.analysis.precheck": ("first_dead_timestep", "predict_zero_mass"),
    "repro.analysis.reachability": ("ReachabilityIndex", "location_universe"),
    "repro.analysis.rules": ("AnalysisContext", "ctgraph_size_bounds"),
})
