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
adds C010's materialisation hint), and the opt-in ``precheck`` option of
:class:`repro.core.algorithm.CleaningOptions`, which runs the
constraints-only rules C001-C004.  Given readings, :func:`analyze` calls
:func:`repro.analysis.advisor.advise` once: one build of the readings
through ``build_ct_graph``, whose exact facts answer C005, C006, C008
and C010 (:class:`EngineAdvice`).  No cleaning run consults it.
``docs/analysis.md`` documents every rule code.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.analysis.advisor import EngineAdvice, advise
    from repro.analysis.analyzer import RULES, ZERO_MASS_RULE, RuleSpec, analyze
    from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity
    from repro.analysis.reachability import ReachabilityIndex, location_universe
    from repro.analysis.rules import AnalysisContext

__all__ = [
    "AnalysisContext",
    "AnalysisReport",
    "Diagnostic",
    "EngineAdvice",
    "ReachabilityIndex",
    "RuleSpec",
    "RULES",
    "Severity",
    "ZERO_MASS_RULE",
    "advise",
    "analyze",
    "location_universe",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.analysis.advisor": ("EngineAdvice", "advise"),
    "repro.analysis.analyzer": (
        "RULES", "ZERO_MASS_RULE", "RuleSpec", "analyze",
    ),
    "repro.analysis.diagnostics": ("AnalysisReport", "Diagnostic", "Severity"),
    "repro.analysis.reachability": ("ReachabilityIndex", "location_universe"),
    "repro.analysis.rules": ("AnalysisContext",),
})
