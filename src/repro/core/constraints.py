"""Integrity constraints over trajectories (Section 3).

Three constraint kinds, exactly as the paper defines them:

* :class:`Unreachable` — ``unreachable(l1, l2)``: no object reaches ``l2``
  from ``l1`` in one timestep (DU);
* :class:`TravelingTime` — ``travelingTime(l1, l2, v)``: moving from ``l1``
  to ``l2`` takes at least ``v`` timesteps (TT);
* :class:`Latency` — ``latency(l, d)``: every stay at ``l`` lasts at least
  ``d`` timesteps (LT).

:class:`ConstraintSet` is the indexed container the cleaning algorithm
queries: constant-time DU lookups, per-(source, destination) minimum travel
times, per-location latency bounds and the paper's
``maxTravelingTime(l)`` (the largest ``v`` of any TT constraint whose first
argument is ``l`` — the horizon after which a recorded departure from ``l``
can no longer invalidate anything).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.errors import ConstraintError

__all__ = ["Unreachable", "TravelingTime", "Latency", "Constraint", "ConstraintSet"]


@dataclass(frozen=True)
class Unreachable:
    """``unreachable(loc_a, loc_b)``: no direct step from ``loc_a`` to ``loc_b``.

    The constraint is directed; map inference emits both directions for
    physically unconnected pairs.  ``loc_a == loc_b`` is legal and forbids
    staying at the location for two consecutive timesteps.
    """

    loc_a: str
    loc_b: str

    def __str__(self) -> str:
        return f"unreachable({self.loc_a}, {self.loc_b})"


@dataclass(frozen=True)
class TravelingTime:
    """``travelingTime(loc_a, loc_b, steps)``: ``loc_a -> loc_b`` takes >= ``steps``.

    ``steps`` counts whole timesteps between the last timestep spent at
    ``loc_a`` and the first subsequent timestep spent at ``loc_b``.
    Constraints with ``steps <= 1`` are vacuous (every move takes at least
    one step) and are rejected to keep constraint sets canonical, as is
    ``loc_a == loc_b`` (which would contradict itself on any stay).
    """

    loc_a: str
    loc_b: str
    steps: int

    def __post_init__(self) -> None:
        if self.loc_a == self.loc_b:
            raise ConstraintError(
                f"travelingTime({self.loc_a}, {self.loc_b}, {self.steps}): "
                "source and destination must differ")
        if self.steps <= 1:
            raise ConstraintError(
                f"travelingTime({self.loc_a}, {self.loc_b}, {self.steps}): "
                "constraints with steps <= 1 are vacuous; do not state them")

    def __str__(self) -> str:
        return f"travelingTime({self.loc_a}, {self.loc_b}, {self.steps})"


@dataclass(frozen=True)
class Latency:
    """``latency(location, duration)``: every stay at ``location`` lasts >= ``duration``.

    ``duration`` is in timesteps.  ``duration <= 1`` is vacuous (every stay
    lasts at least one timestep) and rejected.
    """

    location: str
    duration: int

    def __post_init__(self) -> None:
        if self.duration <= 1:
            raise ConstraintError(
                f"latency({self.location}, {self.duration}): "
                "constraints with duration <= 1 are vacuous; do not state them")

    def __str__(self) -> str:
        return f"latency({self.location}, {self.duration})"


Constraint = Union[Unreachable, TravelingTime, Latency]


class ConstraintSet:
    """An immutable, indexed collection of integrity constraints."""

    def __init__(self, constraints: Iterable[Constraint] = ()) -> None:
        du: Set[Tuple[str, str]] = set()
        tt: Dict[Tuple[str, str], int] = {}
        lt: Dict[str, int] = {}
        items: List[Constraint] = []
        for constraint in constraints:
            items.append(constraint)
            if isinstance(constraint, Unreachable):
                du.add((constraint.loc_a, constraint.loc_b))
            elif isinstance(constraint, TravelingTime):
                key = (constraint.loc_a, constraint.loc_b)
                # Several TT constraints on the same pair: the largest binds.
                tt[key] = max(tt.get(key, 0), constraint.steps)
            elif isinstance(constraint, Latency):
                lt[constraint.location] = max(
                    lt.get(constraint.location, 0), constraint.duration)
            else:
                raise ConstraintError(
                    f"not an integrity constraint: {constraint!r}")
        self._items: Tuple[Constraint, ...] = tuple(items)
        self._item_set: FrozenSet[Constraint] = frozenset(items)
        self._du: FrozenSet[Tuple[str, str]] = frozenset(du)
        self._tt: Dict[Tuple[str, str], int] = tt
        self._lt: Dict[str, int] = lt
        # TT constraints indexed by destination: used when checking arrivals.
        self._tt_by_destination: Dict[str, Tuple[Tuple[str, int], ...]] = {}
        by_dest: Dict[str, List[Tuple[str, int]]] = {}
        for (source, dest), steps in tt.items():
            by_dest.setdefault(dest, []).append((source, steps))
        self._tt_by_destination = {dest: tuple(pairs)
                                   for dest, pairs in by_dest.items()}
        # maxTravelingTime(l): the TT horizon of departures from l.
        self._max_tt: Dict[str, int] = {}
        for (source, _dest), steps in tt.items():
            self._max_tt[source] = max(self._max_tt.get(source, 0), steps)
        self._tt_sources: FrozenSet[str] = frozenset(self._max_tt)

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Constraint]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, constraint: object) -> bool:
        return constraint in self._item_set

    def __or__(self, other: "ConstraintSet") -> "ConstraintSet":
        """The union of two constraint sets.

        Constraints stated by both operands appear once (the frozen
        constraint dataclasses are hashable, so duplicates are detected by
        value); the left operand's statement order is preserved.
        """
        merged = dict.fromkeys(tuple(self) + tuple(other))
        return ConstraintSet(merged)

    def __eq__(self, other: object) -> bool:
        """Two constraint sets are equal iff they state the same constraints.

        Statement order and duplicate statements do not matter — equality
        compares the *sets* of constraints, which is what determines the
        cleaning semantics.  A set is equal to itself at once, without
        walking its constraints.
        """
        if self is other:
            return True
        if not isinstance(other, ConstraintSet):
            return NotImplemented
        return self._item_set == other._item_set

    def __hash__(self) -> int:
        return hash(self._item_set)

    def __repr__(self) -> str:
        return (f"ConstraintSet(du={len(self._du)}, tt={len(self._tt)}, "
                f"lt={len(self._lt)})")

    # ------------------------------------------------------------------
    # the queries the cleaning algorithm needs
    # ------------------------------------------------------------------
    def forbids_step(self, loc_a: str, loc_b: str) -> bool:
        """Whether ``unreachable(loc_a, loc_b)`` is stated."""
        return (loc_a, loc_b) in self._du

    def latency_of(self, location: str) -> Optional[int]:
        """The latency bound for ``location`` (``None`` if unconstrained)."""
        return self._lt.get(location)

    def traveling_time(self, loc_a: str, loc_b: str) -> Optional[int]:
        """The minimum travel time ``loc_a -> loc_b`` (``None`` if unconstrained)."""
        return self._tt.get((loc_a, loc_b))

    def traveling_times_into(self, destination: str) -> Tuple[Tuple[str, int], ...]:
        """All ``(source, steps)`` TT constraints ending at ``destination``."""
        return self._tt_by_destination.get(destination, ())

    def max_traveling_time(self, location: str) -> int:
        """The paper's ``maxTravelingTime(l)``: max ``v`` over TT with source ``l``.

        0 when ``location`` sources no TT constraint — recorded departures
        from it are never needed.
        """
        return self._max_tt.get(location, 0)

    @property
    def tt_sources(self) -> FrozenSet[str]:
        """Locations appearing as the source of at least one TT constraint."""
        return self._tt_sources

    @cached_property
    def sorted_statements(self) -> Tuple[str, ...]:
        """Every statement as text, sorted, repeats kept: the constraints
        part of a store key (:func:`repro.store.content_key`).  Computed
        once, since the set is immutable."""
        return tuple(sorted(str(constraint) for constraint in self._items))

    @property
    def unreachable_pairs(self) -> FrozenSet[Tuple[str, str]]:
        return self._du

    @property
    def latency_bounds(self) -> Dict[str, int]:
        """A copy of the per-location latency bounds."""
        return dict(self._lt)

    @property
    def traveling_time_bounds(self) -> Dict[Tuple[str, str], int]:
        """A copy of the per-pair minimum travel times."""
        return dict(self._tt)

    def only(self, *kinds: type) -> "ConstraintSet":
        """The sub-set containing only constraints of the given classes.

        Used by the experiment harness to derive CTG(DU), CTG(DU, LT), ...
        from one full constraint set.
        """
        return ConstraintSet(c for c in self._items if isinstance(c, tuple(kinds)))
