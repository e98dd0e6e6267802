"""The analyzer's rules: C001-C010 (C007 and C009 retired).

Every rule is a generator taking an :class:`AnalysisContext` and yielding
:class:`~repro.analysis.diagnostics.Diagnostic` records.  C001-C004
inspect the constraints (and the optional map, prior and readings
supports) alone; their most expensive machinery is the cached BFS
closure of :class:`~repro.analysis.reachability.ReachabilityIndex`.  The
readings rules C005, C006, C008 and C010 read the one
:class:`~repro.analysis.advisor.EngineAdvice` that
:func:`~repro.analysis.analyzer.analyze` computes per call: exact facts
off one build of the readings.

| code | severity | finding |
|------|----------|---------|
| C001 | ERROR    | ``unreachable(l, l)`` + ``latency(l, d)``: contradictory stay |
| C002 | WARNING  | TT constraint whose destination is unreachable from its source |
| C003 | INFO     | duplicate statements / bounds dominated by stricter ones |
| C004 | WARNING  | location with no DU-legal in- or out-steps |
| C005 | ERROR    | a concrete reading sequence has zero valid mass |
| C006 | INFO     | exact ct-graph size per level, and its bytes per shape |
| C008 | WARNING  | dead support candidates / forced single-location levels |
| C010 | INFO     | materialisation hint (``--advise``) |

C007 (an interval width envelope) and C009 (its zero-mass proof) bounded
what C006 and C005 now count exactly; their codes are not reused.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional, Set, Tuple

from repro.analysis.advisor import EngineAdvice
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.reachability import ReachabilityIndex
from repro.core.constraints import ConstraintSet, Latency, TravelingTime
from repro.core.lsequence import LSequence

__all__ = [
    "AnalysisContext",
    "check_contradictory_stays",
    "check_dead_traveling_times",
    "check_redundant_constraints",
    "check_dead_locations",
    "check_zero_mass",
    "check_graph_size",
    "check_dead_level_candidates",
    "check_materialisation",
]


@dataclass(frozen=True)
class AnalysisContext:
    """Everything one analyzer run knows about its inputs.

    ``map_model`` and ``prior`` are duck-typed (anything exposing
    ``location_names``); ``lsequence`` and ``advice`` are present only
    when the caller supplied a concrete reading sequence.
    """

    constraints: ConstraintSet
    universe: Tuple[str, ...]
    reachability: ReachabilityIndex
    map_model: Optional[object] = None
    prior: Optional[object] = None
    lsequence: Optional[LSequence] = None
    strict_truncation: bool = False
    #: The exact facts of one build of the readings, computed once by
    #: :func:`~repro.analysis.analyzer.analyze` and shared by C005, C006,
    #: C008 and C010.
    advice: Optional[EngineAdvice] = None


# ----------------------------------------------------------------------
# C001 — contradiction: unreachable(l, l) + latency(l, d >= 2)
# ----------------------------------------------------------------------
def check_contradictory_stays(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """``unreachable(l, l)`` forbids consecutive timesteps at ``l``, so no
    stay can ever span the >= 2 timesteps a latency bound demands."""
    for location, bound in sorted(ctx.constraints.latency_bounds.items()):
        if ctx.constraints.forbids_step(location, location):
            yield Diagnostic(
                "C001", Severity.ERROR,
                f"unreachable({location}, {location}) contradicts "
                f"latency({location}, {bound}): the DU constraint caps "
                f"every stay at {location} at a single timestep, so the "
                f"{bound}-step latency bound is unsatisfiable: no "
                f"trajectory may visit {location} (under the lenient "
                f"truncated-stay policy, only a truncated arrival at the "
                f"final timestep survives)",
                subjects=(location,),
                data={"latency": bound})


# ----------------------------------------------------------------------
# C002 — dead TT: destination unreachable from source
# ----------------------------------------------------------------------
def check_dead_traveling_times(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """A ``travelingTime(l1, l2, v)`` only ever binds on a trajectory that
    visits ``l1`` and later ``l2`` — impossible when ``l2`` is unreachable
    from ``l1`` in the DU-induced step graph."""
    for (source, destination), steps in sorted(
            ctx.constraints.traveling_time_bounds.items()):
        if not ctx.reachability.can_ever_reach(source, destination):
            yield Diagnostic(
                "C002", Severity.WARNING,
                f"travelingTime({source}, {destination}, {steps}) can "
                f"never bind: {destination} is unreachable from {source} "
                f"in the DU-induced step graph (over "
                f"{len(ctx.reachability.universe)} locations), so the "
                f"constraint is dead",
                subjects=(source, destination),
                data={"steps": steps})


# ----------------------------------------------------------------------
# C003 — redundant constraints
# ----------------------------------------------------------------------
def check_redundant_constraints(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """Duplicate statements and bounds dominated by stricter stated bounds.

    ``ConstraintSet`` already keeps the strictest bound per subject, so
    neither kind changes the semantics — the diagnostics exist so stated
    constraint sets stay canonical.
    """
    counts = Counter(ctx.constraints)
    for constraint, copies in sorted(counts.items(),
                                     key=lambda pair: str(pair[0])):
        if copies > 1:
            yield Diagnostic(
                "C003", Severity.INFO,
                f"{constraint} is stated {copies} times; the duplicates "
                f"change nothing",
                subjects=(str(constraint),))
    tt_bounds = ctx.constraints.traveling_time_bounds
    lt_bounds = ctx.constraints.latency_bounds
    for constraint in sorted(counts, key=str):
        if isinstance(constraint, TravelingTime):
            binding = tt_bounds[(constraint.loc_a, constraint.loc_b)]
            if constraint.steps < binding:
                yield Diagnostic(
                    "C003", Severity.INFO,
                    f"{constraint} is dominated by the stricter stated "
                    f"bound travelingTime({constraint.loc_a}, "
                    f"{constraint.loc_b}, {binding})",
                    subjects=(str(constraint),))
        elif isinstance(constraint, Latency):
            binding = lt_bounds[constraint.location]
            if constraint.duration < binding:
                yield Diagnostic(
                    "C003", Severity.INFO,
                    f"{constraint} is dominated by the stricter stated "
                    f"bound latency({constraint.location}, {binding})",
                    subjects=(str(constraint),))


# ----------------------------------------------------------------------
# C004 — dead locations
# ----------------------------------------------------------------------
def _mass_carrying_locations(ctx: AnalysisContext) -> Optional[Set[str]]:
    """The locations some prior/reading can put mass on (``None`` = unknown)."""
    if ctx.lsequence is not None:
        carrying: Set[str] = set()
        for tau in range(ctx.lsequence.duration):
            carrying.update(ctx.lsequence.support(tau))
        return carrying
    prior_names = getattr(ctx.prior, "location_names", None)
    if prior_names is not None:
        return set(prior_names)
    return None


def check_dead_locations(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """A location with no DU-legal out-steps can only end a trajectory; one
    with no DU-legal in-steps can only start it.  Either way, prior mass
    placed on it at any interior timestep is guaranteed loss."""
    carrying = _mass_carrying_locations(ctx)
    for location in ctx.universe:
        has_out = bool(ctx.reachability.successors(location))
        has_in = bool(ctx.reachability.predecessors(location))
        if has_out and has_in:
            continue
        if not has_out and not has_in:
            detail = ("no DU-legal incoming or outgoing steps (not even a "
                      "stay): it cannot appear in any trajectory of 2+ "
                      "timesteps")
        elif not has_out:
            detail = ("no DU-legal outgoing steps (not even a stay): it "
                      "can only appear at the final timestep")
        else:
            detail = ("no DU-legal incoming steps (not even a stay): it "
                      "can only appear at timestep 0")
        carries_mass = carrying is None or location in carrying
        yield Diagnostic(
            "C004",
            Severity.WARNING if carries_mass else Severity.INFO,
            f"dead location {location}: {detail}"
            + ("" if carries_mass
               else " (no supplied reading/prior puts mass on it)"),
            subjects=(location,))


# ----------------------------------------------------------------------
# C005 — zero valid mass for a concrete reading sequence
# ----------------------------------------------------------------------
def check_zero_mass(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """The build raised ``ZeroMassError``: report where it died."""
    advice = ctx.advice
    if advice is None or not advice.zero_mass:
        return
    failed_at = advice.failed_at
    if failed_at == 0:
        where = "no source location satisfies the constraints at timestep 0"
    else:
        where = (f"every interpretation of the readings dies entering "
                 f"timestep {failed_at}")
    yield Diagnostic(
        "C005", Severity.ERROR,
        f"zero valid mass: {where}; conditioning is undefined and "
        f"Algorithm 1 raises ZeroMassError "
        f"(repro.core.diagnostics.diagnose gives a per-move account)",
        data={"failed_at": failed_at})


# ----------------------------------------------------------------------
# C006 — exact ct-graph size
# ----------------------------------------------------------------------
def check_graph_size(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """Report the graph's exact size so callers can budget memory.

    Bytes are reported for every shape — ``CTNode`` objects, the flat
    columnar form and the ``.ctg`` file — since the right budget depends
    on which one is materialised.
    """
    advice = ctx.advice
    if advice is None or advice.zero_mass:
        return
    widths = list(advice.level_nodes)
    worst = advice.peak_level_width
    worst_at = widths.index(worst)
    yield Diagnostic(
        "C006", Severity.INFO,
        f"ct-graph size: {advice.nodes_kept} node states kept of "
        f"{advice.nodes_created} created over {len(widths)} timesteps "
        f"(widest timestep {worst_at}: {worst}), "
        f"{sum(advice.level_edges)} edges kept of {advice.edges_created}; "
        f"~{advice.node_bytes / 1024.0:.0f} KiB as CTNode objects, "
        f"~{advice.flat_bytes / 1024.0:.0f} KiB flat (materialize='flat'), "
        f"{advice.ctg_bytes} bytes on disk as .ctg (materialize='store')",
        data={"total": advice.nodes_kept, "worst": worst,
              "worst_timestep": worst_at, "per_timestep": widths,
              "per_timestep_edges": list(advice.level_edges),
              "nodes_created": advice.nodes_created,
              "edges_created": advice.edges_created,
              "node_bytes": advice.node_bytes,
              "flat_bytes": advice.flat_bytes,
              "ctg_bytes": advice.ctg_bytes})


# ----------------------------------------------------------------------
# C008 — dead support candidates and forced levels
# ----------------------------------------------------------------------
def check_dead_level_candidates(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """Support entries no valid trajectory passes through — whether the
    forward pass never reaches them or the backward sweep removes every
    state there — and ambiguous levels forced to a single location."""
    advice = ctx.advice
    if advice is None or advice.zero_mass:
        # On zero mass every candidate is dead; C005 covers it.
        return
    dead = advice.dead
    if dead:
        shown = ", ".join(f"t{tau}:{location}" for tau, location in dead[:6])
        if len(dead) > 6:
            shown += ", ..."
        yield Diagnostic(
            "C008", Severity.WARNING,
            f"{len(dead)} support candidate(s) can never carry mass "
            f"({shown}): no constraint-legal trajectory passes through "
            f"them, so their prior probability is guaranteed loss that "
            f"conditioning redistributes",
            subjects=tuple(sorted({location for _, location in dead})),
            data={"dead": [[tau, location] for tau, location in dead]})
    forced = advice.forced
    if forced:
        shown = ", ".join(f"t{tau}:{location}"
                          for tau, location in forced[:6])
        if len(forced) > 6:
            shown += ", ..."
        yield Diagnostic(
            "C008", Severity.INFO,
            f"{len(forced)} ambiguous timestep(s) are forced to a single "
            f"location ({shown}): cleaning will answer these levels with "
            f"certainty",
            subjects=tuple(sorted({location for _, location in forced})),
            data={"forced": [[tau, location] for tau, location in forced]})


# ----------------------------------------------------------------------
# C010 — materialisation hint (advisory, --advise)
# ----------------------------------------------------------------------
def check_materialisation(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """Surface :func:`repro.analysis.advisor.advise`'s materialisation
    hint as a diagnostic."""
    advice = ctx.advice
    if advice is None:
        return
    if advice.zero_mass:
        summary = (f"cleaning raises ZeroMassError entering timestep "
                   f"{advice.failed_at}; nothing to materialise")
    else:
        summary = (f"{advice.nodes_kept} node states, peak level width "
                   f"{advice.peak_level_width} "
                   f"(~{advice.node_bytes / 1024.0:.0f} KiB as nodes, "
                   f"~{advice.flat_bytes / 1024.0:.0f} KiB flat, "
                   f"{advice.ctg_bytes} bytes as .ctg); "
                   f"materialize={advice.materialize} advised")
    yield Diagnostic(
        "C010", Severity.INFO,
        f"materialisation: {summary}",
        data={"materialize": advice.materialize,
              "nodes_kept": advice.nodes_kept,
              "peak_level_width": advice.peak_level_width,
              "node_bytes": advice.node_bytes,
              "flat_bytes": advice.flat_bytes,
              "ctg_bytes": advice.ctg_bytes,
              "zero_mass": advice.zero_mass,
              "failed_at": advice.failed_at})
