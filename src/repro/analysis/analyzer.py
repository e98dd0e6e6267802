"""The analyzer entry point: run every rule, collect a report.

:func:`analyze` is the one-call API behind the ``rfid-ctg analyze`` CLI
subcommand; the opt-in ``precheck`` of
:func:`repro.core.algorithm.build_ct_graph` runs its constraints-only
rules.  It inspects a constraint set (plus, optionally, a map model and
a prior model) without enumerating trajectories; given a concrete
reading sequence it also builds that sequence's ct-graph once, through
:func:`repro.analysis.advisor.advise`, and reads exact facts off it.  It
returns an :class:`AnalysisReport` of typed diagnostics with stable rule
codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple, Union

from repro.analysis import advisor
from repro.analysis.diagnostics import AnalysisReport, Diagnostic
from repro.analysis.reachability import ReachabilityIndex, location_universe
from repro.analysis.rules import (
    AnalysisContext,
    check_contradictory_stays,
    check_dead_level_candidates,
    check_dead_locations,
    check_dead_traveling_times,
    check_graph_size,
    check_materialisation,
    check_redundant_constraints,
    check_zero_mass,
)
from repro.core.constraints import ConstraintSet
from repro.core.lsequence import LSequence, ReadingSequence
from repro.errors import ReadingSequenceError

__all__ = ["RuleSpec", "RULES", "ZERO_MASS_RULE", "analyze"]

#: The rule code that *proves* conditioning would divide by zero.
ZERO_MASS_RULE = "C005"


@dataclass(frozen=True)
class RuleSpec:
    """One registered analyzer rule.

    ``advisory`` rules run only when the caller opts in with
    ``analyze(..., advise=True)`` (the CLI's ``--advise``) — they report
    recommendations, not problems.
    """

    code: str
    title: str
    requires_readings: bool
    check: Callable[[AnalysisContext], Iterator[Diagnostic]]
    advisory: bool = False


#: C007 and C009 are retired; their codes are not reused.
RULES: Tuple[RuleSpec, ...] = (
    RuleSpec("C001", "contradictory stay (DU self-loop vs latency)",
             False, check_contradictory_stays),
    RuleSpec("C002", "dead traveling-time constraint",
             False, check_dead_traveling_times),
    RuleSpec("C003", "redundant constraint",
             False, check_redundant_constraints),
    RuleSpec("C004", "dead location",
             False, check_dead_locations),
    RuleSpec("C005", "zero valid mass",
             True, check_zero_mass),
    RuleSpec("C006", "exact ct-graph size",
             True, check_graph_size),
    RuleSpec("C008", "dead support candidates / forced levels",
             True, check_dead_level_candidates),
    RuleSpec("C010", "materialisation hint",
             True, check_materialisation, advisory=True),
)


def _as_lsequence(readings: Optional[Union[LSequence, ReadingSequence]],
                  prior: Optional[object]) -> Optional[LSequence]:
    if readings is None:
        return None
    if isinstance(readings, LSequence):
        return readings
    if isinstance(readings, ReadingSequence):
        if prior is None:
            raise ReadingSequenceError(
                "analyze() was given raw readings but no prior model to "
                "interpret them with; pass prior=, or pass an LSequence")
        return LSequence.from_readings(readings, prior)
    raise ReadingSequenceError(
        f"analyze() readings must be a ReadingSequence or an LSequence, "
        f"got {type(readings).__name__}")


def analyze(constraints: ConstraintSet,
            map_model: Optional[object] = None,
            prior: Optional[object] = None,
            readings: Optional[Union[LSequence, ReadingSequence]] = None,
            *, strict_truncation: bool = False,
            advise: bool = False) -> AnalysisReport:
    """Analyze a constraint set (and optional map/prior/readings).

    Rules C001-C004 need only the constraints (the map model widens the
    location universe and the prior tells C004 which locations actually
    carry mass); C005, C006 and C008 additionally need a concrete reading
    sequence — pass ``readings`` as either a raw
    :class:`~repro.core.lsequence.ReadingSequence` (with ``prior``) or an
    already-interpreted :class:`~repro.core.lsequence.LSequence`.  With
    readings, :func:`repro.analysis.advisor.advise` runs exactly once
    and every readings rule reads its result.  ``advise=True``
    additionally runs the advisory rule C010 (the materialisation hint).

    Diagnostics are emitted in rule-code order and are deterministic for a
    given input (rules iterate sorted views).
    """
    lsequence = _as_lsequence(readings, prior)
    universe = location_universe(constraints, map_model, prior, lsequence)
    # Looked up at call time, so a wrapped ``advisor.advise`` sees it.
    advice = (advisor.advise(lsequence, constraints,
                             strict_truncation=strict_truncation)
              if lsequence is not None else None)
    context = AnalysisContext(
        constraints=constraints,
        universe=universe,
        reachability=ReachabilityIndex(universe, constraints),
        map_model=map_model,
        prior=prior,
        lsequence=lsequence,
        strict_truncation=strict_truncation,
        advice=advice)
    diagnostics: List[Diagnostic] = []
    for spec in RULES:
        if spec.requires_readings and lsequence is None:
            continue
        if spec.advisory and not advise:
            continue
        diagnostics.extend(spec.check(context))
    return AnalysisReport(tuple(diagnostics))
