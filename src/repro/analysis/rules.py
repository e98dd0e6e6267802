"""The analyzer's rules: C001-C010.

Every rule is a generator taking an :class:`AnalysisContext` and yielding
:class:`~repro.analysis.diagnostics.Diagnostic` records.  Rules are pure
inspections — none enumerates trajectories or touches probabilities; the
most expensive machinery is the cached BFS closure of
:class:`~repro.analysis.reachability.ReachabilityIndex`, the boolean
forward pass of :mod:`repro.analysis.precheck` (C005) and the abstract
forward pass of :mod:`repro.analysis.envelope` (C007-C010) — all
readings-specific and polynomial.

| code | severity | finding |
|------|----------|---------|
| C001 | ERROR    | ``unreachable(l, l)`` + ``latency(l, d)``: contradictory stay |
| C002 | WARNING  | TT constraint whose destination is unreachable from its source |
| C003 | INFO     | duplicate statements / bounds dominated by stricter ones |
| C004 | WARNING  | location with no DU-legal in- or out-steps |
| C005 | ERROR    | a concrete reading sequence has zero valid mass |
| C006 | INFO     | ct-graph node-count upper bound per timestep (+ byte estimates) |
| C007 | INFO     | abstract width envelope: tighter per-level node bound |
| C008 | WARNING  | dead support candidates / forced single-location levels |
| C009 | ERROR    | interval envelope empties a level: zero mass, proved early |
| C010 | INFO     | size estimate and materialisation hint (``--advise``) |
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.envelope import (
    ConstraintEnvelope,
    estimate_ctg_bytes,
    estimate_graph_bytes,
)
from repro.analysis.precheck import first_dead_timestep
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
    "check_blowup_estimate",
    "check_width_envelope",
    "check_dead_level_candidates",
    "check_envelope_zero_mass",
    "check_size_estimate",
    "ctgraph_size_bounds",
]


@dataclass(frozen=True)
class AnalysisContext:
    """Everything one analyzer run knows about its inputs.

    ``map_model`` and ``prior`` are duck-typed (anything exposing
    ``location_names``); ``lsequence`` is present only when the caller
    supplied a concrete reading sequence to pre-check.
    """

    constraints: ConstraintSet
    universe: Tuple[str, ...]
    reachability: ReachabilityIndex
    map_model: Optional[object] = None
    prior: Optional[object] = None
    lsequence: Optional[LSequence] = None
    strict_truncation: bool = False
    #: The abstract-interpretation envelope over the readings, built once
    #: by :func:`~repro.analysis.analyzer.analyze` and shared by
    #: C007-C010.  ``None`` without readings.
    envelope: Optional[ConstraintEnvelope] = None


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
# C005 — zero-mass pre-check for a concrete reading sequence
# ----------------------------------------------------------------------
def check_zero_mass(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """The boolean forward pass of :mod:`repro.analysis.precheck`."""
    if ctx.lsequence is None:
        return
    failed_at = first_dead_timestep(
        ctx.lsequence, ctx.constraints,
        strict_truncation=ctx.strict_truncation)
    if failed_at is None:
        return
    if failed_at == 0:
        where = "no source location satisfies the constraints at timestep 0"
    else:
        where = (f"every interpretation of the readings dies entering "
                 f"timestep {failed_at}")
    yield Diagnostic(
        "C005", Severity.ERROR,
        f"zero valid mass: {where}; conditioning is undefined and "
        f"Algorithm 1 would raise ZeroMassError "
        f"(repro.core.diagnostics.diagnose gives a per-move account)",
        data={"failed_at": failed_at})


# ----------------------------------------------------------------------
# C006 — ct-graph blowup estimate
# ----------------------------------------------------------------------
def ctgraph_size_bounds(lsequence: LSequence,
                        constraints: ConstraintSet) -> List[int]:
    """A per-timestep upper bound on the number of ct-graph node states.

    A node state is ``(location, stay, departures)``.  Per candidate
    location ``l`` at timestep ``tau`` the bound multiplies:

    * the stay values — ``latency(l, d)`` admits ``{1..d-1}`` plus the
      non-binding ``None``, i.e. ``d`` values (1 without a bound);
    * per TT-source ``l' != l``: absence, or one entry ``(t, l')`` for
      each ``t`` in the ``maxTravelingTime(l')`` window where ``l'`` has
      prior support.

    The bound never underestimates (it ignores DU/TT pruning and the
    l-sequence-aware departure filter, which only shrink the state space);
    computing it costs ``O(T * L * |TT sources| * log T)``.
    """
    tt_sources = sorted(constraints.tt_sources)
    support_times: Dict[str, List[int]] = {source: [] for source in tt_sources}
    for tau in range(lsequence.duration):
        for location in lsequence.support(tau):
            if location in support_times:
                support_times[location].append(tau)

    bounds: List[int] = []
    for tau in range(lsequence.duration):
        total = 0
        for location in lsequence.support(tau):
            latency = constraints.latency_of(location)
            combinations = latency if latency is not None and latency > 1 else 1
            for source in tt_sources:
                if source == location:
                    continue
                window_start = tau - constraints.max_traveling_time(source) + 1
                times = support_times[source]
                low = bisect_left(times, max(0, window_start))
                high = bisect_left(times, tau)
                combinations *= 1 + (high - low)
            total += combinations
        bounds.append(total)
    return bounds


def check_blowup_estimate(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """Report the C006 size bound so callers can budget memory up front.

    Bytes are reported for *both* materialisations — ``CTNode`` objects
    and the flat columnar form — since the flat form carries the same
    graph in roughly a quarter of the memory; quoting only the node form
    (as this rule originally did) overstates the real floor ~4x.
    """
    if ctx.lsequence is None:
        return
    bounds = ctgraph_size_bounds(ctx.lsequence, ctx.constraints)
    worst = max(bounds)
    worst_at = bounds.index(worst)
    # Each node has at most one successor per next-level support location.
    edge_bounds = [bounds[tau] * len(ctx.lsequence.support(tau + 1))
                   for tau in range(len(bounds) - 1)]
    node_bytes, flat_bytes = estimate_graph_bytes(bounds, edge_bounds)
    ctg_bytes = estimate_ctg_bytes(bounds, edge_bounds)
    yield Diagnostic(
        "C006", Severity.INFO,
        f"ct-graph size upper bound: <= {sum(bounds)} node states over "
        f"{len(bounds)} timesteps (worst timestep {worst_at}: <= {worst}); "
        f"~{node_bytes / 1024.0:.0f} KiB as CTNode objects, "
        f"~{flat_bytes / 1024.0:.0f} KiB flat (materialize='flat'), "
        f"~{ctg_bytes / 1024.0:.0f} KiB on disk as .ctg "
        f"(materialize='store')",
        data={"total": sum(bounds), "worst": worst,
              "worst_timestep": worst_at, "per_timestep": bounds,
              "per_timestep_edges": edge_bounds,
              "node_bytes": node_bytes, "flat_bytes": flat_bytes,
              "ctg_bytes": ctg_bytes})


# ----------------------------------------------------------------------
# C007 — abstract width envelope (tighter than C006)
# ----------------------------------------------------------------------
def check_width_envelope(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """Report the per-level width bound of the constraint envelope.

    Pointwise at most C006's support-product bound (the envelope starts
    from the same factors and only intersects them with feasibility
    information), and sound: every concrete forward state of Algorithm 1
    is covered by its envelope cell.
    """
    if ctx.lsequence is None or ctx.envelope is None:
        return
    if ctx.envelope.proves_zero_mass:
        # C009 reports the emptiness; a width bound of zero adds noise.
        return
    widths = ctx.envelope.width_bounds()
    total = sum(widths)
    worst = max(widths)
    worst_at = widths.index(worst)
    c006_total = sum(ctgraph_size_bounds(ctx.lsequence, ctx.constraints))
    tightening = c006_total / max(total, 1)
    yield Diagnostic(
        "C007", Severity.INFO,
        f"abstract width envelope: <= {total} node states over "
        f"{len(widths)} timesteps (worst timestep {worst_at}: <= {worst}); "
        f"tightens the C006 product bound ({c006_total}) by "
        f"{tightening:.2f}x",
        data={"total": total, "worst": worst, "worst_timestep": worst_at,
              "per_timestep": widths, "c006_total": c006_total})


# ----------------------------------------------------------------------
# C008 — dead support candidates and forced levels
# ----------------------------------------------------------------------
def check_dead_level_candidates(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """Support entries the envelope proves can never carry mass, and
    ambiguous levels statically forced to a single location."""
    if ctx.lsequence is None or ctx.envelope is None:
        return
    if ctx.envelope.proves_zero_mass:
        # Past the empty level everything is trivially dead; C009 covers it.
        return
    dead = ctx.envelope.dead_candidates()
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
    forced = ctx.envelope.forced_levels()
    if forced:
        shown = ", ".join(f"t{tau}:{location}"
                          for tau, location in forced[:6])
        if len(forced) > 6:
            shown += ", ..."
        yield Diagnostic(
            "C008", Severity.INFO,
            f"{len(forced)} ambiguous timestep(s) are statically forced "
            f"to a single location ({shown}): cleaning will answer these "
            f"levels with certainty",
            subjects=tuple(sorted({location for _, location in forced})),
            data={"forced": [[tau, location] for tau, location in forced]})


# ----------------------------------------------------------------------
# C009 — envelope emptiness: zero mass proved by intervals alone
# ----------------------------------------------------------------------
def check_envelope_zero_mass(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """Zero valid mass proved by the interval envelope.

    One-directional: an empty envelope level admits no concrete state, so
    this is a sound (and cheaper, polynomial-width) early proof that
    Algorithm 1 raises ``ZeroMassError``.  C005's exact forward pass
    remains the complete test and fires alongside this rule.
    """
    if ctx.lsequence is None or ctx.envelope is None:
        return
    failed_at = ctx.envelope.first_empty_level
    if failed_at is None:
        return
    yield Diagnostic(
        "C009", Severity.ERROR,
        f"zero valid mass, proved by the interval envelope: the abstract "
        f"TT/latency windows leave no feasible (location, stay, "
        f"departures) state at timestep {failed_at}, so Algorithm 1 must "
        f"raise ZeroMassError (the exact C005 pass confirms it)",
        data={"failed_at": failed_at})


# ----------------------------------------------------------------------
# C010 — size estimate and materialisation hint (advisory, --advise)
# ----------------------------------------------------------------------
def check_size_estimate(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """Surface the static size estimate of
    :func:`repro.analysis.advisor.advise` as a diagnostic."""
    if ctx.lsequence is None or ctx.envelope is None:
        return
    # Looked up at call time, so a wrapped ``advisor.advise`` sees it.
    from repro.analysis.advisor import advise

    advice = advise(ctx.lsequence, ctx.constraints,
                    strict_truncation=ctx.strict_truncation,
                    envelope=ctx.envelope)
    if advice.zero_mass:
        summary = (f"the envelope empties at timestep "
                   f"{ctx.envelope.first_empty_level}: cleaning raises "
                   f"ZeroMassError before building anything")
    else:
        summary = (f"<= {advice.predicted_states} node states, peak level "
                   f"width {advice.peak_level_width}")
    yield Diagnostic(
        "C010", Severity.INFO,
        f"size estimate: {summary} "
        f"(~{advice.predicted_node_bytes / 1024.0:.0f} KiB as nodes, "
        f"~{advice.predicted_flat_bytes / 1024.0:.0f} KiB flat, "
        f"~{advice.predicted_ctg_bytes / 1024.0:.0f} KiB as .ctg); "
        f"materialize={advice.materialize} advised",
        data={"materialize": advice.materialize,
              "predicted_states": advice.predicted_states,
              "peak_level_width": advice.peak_level_width,
              "predicted_node_bytes": advice.predicted_node_bytes,
              "predicted_flat_bytes": advice.predicted_flat_bytes,
              "predicted_ctg_bytes": advice.predicted_ctg_bytes,
              "zero_mass": advice.zero_mass})
