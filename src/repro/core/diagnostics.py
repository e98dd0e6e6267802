"""Diagnosing inconsistent readings: *why* did cleaning fail?

When no trajectory compatible with the readings satisfies the constraints,
the builders' :class:`~repro.errors.ZeroMassError` names the timestep
its forward pass died entering (``failed_at``), but not *why*.
:func:`diagnose` replays the forward phase and reports the same first
dead timestep, together with a per-constraint-kind account of what
blocked each frontier state's candidate moves — the difference between
"your data is broken" and "reader r7's detections at 14:02 imply a wall
was crossed".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.algorithm import CleaningOptions
from repro.core.constraints import ConstraintSet
from repro.core.lsequence import LSequence
from repro.core.nodes import (
    DepartureFilter,
    NodeState,
    source_states,
    successor_state,
)

__all__ = ["BlockedMove", "InconsistencyReport", "diagnose"]


@dataclass(frozen=True)
class BlockedMove:
    """One candidate step that the constraints rejected."""

    origin: str
    destination: str
    reason: str          # "unreachable" | "latency" | "travelingTime"
    detail: str

    def __str__(self) -> str:
        return f"{self.origin} -> {self.destination}: {self.detail}"


@dataclass
class InconsistencyReport:
    """Where and why the readings became uncleanable."""

    failed_at: Optional[int]                 # None = the data is consistent
    frontier_locations: Tuple[str, ...] = ()
    candidate_locations: Tuple[str, ...] = ()
    blocked: List[BlockedMove] = field(default_factory=list)

    @property
    def is_consistent(self) -> bool:
        return self.failed_at is None

    def summary(self) -> str:
        """A human-readable account (one paragraph)."""
        if self.is_consistent:
            return "the readings are consistent with the constraints"
        reasons: Dict[str, int] = {}
        for move in self.blocked:
            reasons[move.reason] = reasons.get(move.reason, 0) + 1
        reason_text = ", ".join(f"{count} by {reason}"
                                for reason, count in sorted(reasons.items()))
        return (
            f"no valid interpretation survives timestep {self.failed_at}: "
            f"the object could be at {{{', '.join(self.frontier_locations)}}} "
            f"but the readings then require "
            f"{{{', '.join(self.candidate_locations)}}}; "
            f"every move is blocked ({reason_text})")


def _explain_block(tau: int, state: NodeState, destination: str,
                   constraints: ConstraintSet) -> Optional[BlockedMove]:
    """Which rule of Definition 3 rejects ``state -> destination``."""
    location, stay, departures = state
    arrival = tau + 1
    if constraints.forbids_step(location, destination):
        return BlockedMove(location, destination, "unreachable",
                           f"unreachable({location}, {destination})")
    if destination != location and stay is not None:
        bound = constraints.latency_of(location)
        return BlockedMove(
            location, destination, "latency",
            f"latency({location}, {bound}): the stay is only "
            f"{stay} step(s) old")
    if destination != location:
        direct = constraints.traveling_time(location, destination)
        if direct is not None and arrival - tau < direct:
            return BlockedMove(
                location, destination, "travelingTime",
                f"travelingTime({location}, {destination}, {direct}) "
                "forbids a direct step")
        for departed_at, departed_loc in departures:
            steps = constraints.traveling_time(departed_loc, destination)
            if steps is not None and arrival - departed_at < steps:
                return BlockedMove(
                    location, destination, "travelingTime",
                    f"travelingTime({departed_loc}, {destination}, {steps}):"
                    f" left {departed_loc} at {departed_at}, arriving at "
                    f"{arrival} is too soon")
    return None


def diagnose(lsequence: LSequence, constraints: ConstraintSet,
             options: CleaningOptions = CleaningOptions(),
             max_blocked: int = 20) -> InconsistencyReport:
    """Replay the forward phase; report the first total dead-end.

    Note this reports *forward* inconsistency (some prefix admits no valid
    continuation), which is exactly when the cleaning algorithm gives up.
    ``max_blocked`` caps the per-report blocked-move list.
    """
    frontier: Dict[NodeState, None] = {
        state: None
        for state in source_states(lsequence.support(0), constraints).values()
        if not (options.strict_truncation and lsequence.duration == 1
                and state[1] is not None)
    }
    if not frontier:
        return InconsistencyReport(
            failed_at=0,
            frontier_locations=(),
            candidate_locations=tuple(sorted(lsequence.support(0))))

    # The builders' exact ``TL`` pruning: without it a consistent object
    # enumerates every state the horizon rule alone admits.
    departure_filter = (DepartureFilter(lsequence, constraints)
                        if constraints.tt_sources else None)
    for tau in range(lsequence.duration - 1):
        candidates = lsequence.candidates(tau + 1)
        filter_binding = (options.strict_truncation
                          and tau + 1 == lsequence.duration - 1)
        next_frontier: Dict[NodeState, None] = {}
        blocked: List[BlockedMove] = []
        for state in frontier:
            for destination in candidates:
                successor = successor_state(tau, state, destination,
                                            constraints, departure_filter)
                if successor is None:
                    if len(blocked) < max_blocked:
                        move = _explain_block(tau, state, destination,
                                              constraints)
                        if move is not None:
                            blocked.append(move)
                    continue
                if filter_binding and successor[1] is not None:
                    continue
                next_frontier[successor] = None
        if not next_frontier:
            return InconsistencyReport(
                failed_at=tau + 1,
                frontier_locations=tuple(sorted(
                    {state[0] for state in frontier})),
                candidate_locations=tuple(sorted(candidates)),
                blocked=blocked)
        frontier = next_frontier
    return InconsistencyReport(failed_at=None)
