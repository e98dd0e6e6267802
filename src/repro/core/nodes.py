"""Location-node state and the successor relation (Section 4, Definition 3).

A location node carries ``(tau, location, stay, departures)``:

* ``stay`` is the paper's ``delta``, normalised as described in DESIGN.md:
  the length (in timesteps, >= 1) of the object's current stay at
  ``location``, tracked only while it is still *binding* — i.e. while a
  latency constraint exists on ``location`` and the stay is still shorter
  than its bound.  Once the bound is met (or when the location has no
  latency constraint) the value is ``None`` (the paper's ``⊥``), which
  merges states that behave identically in the future.

* ``departures`` is the paper's ``TL``: a tuple of ``(time, location)``
  pairs recording, for each location that (a) the object left in the recent
  past and (b) sources at least one TT constraint, the last timestep spent
  there.  Entries expire as soon as ``now - time >= maxTravelingTime(loc)``
  — with a :class:`DepartureFilter`, as soon as no walk through the
  l-sequence's supports can still reach a destination they bind; online,
  as soon as no walk from the node's own ``(location, stay)`` can
  (:func:`binding_ages`) — and only the latest departure per location is
  kept (an older departure is strictly weaker), so states stay canonical
  and finite.

Given the node state, validity of any *future* is independent of how the
state was reached — the Markov property that makes the ct-graph's per-node
``loss`` well-defined and Algorithm 1 exact.

Two interpretation choices (see DESIGN.md §3) are encoded here:

* a move ``l1 -> l2`` also checks ``travelingTime(l1, l2, v)`` directly
  (the implicit departure ``(tau1, l1)``), which Definition 2 requires even
  though the paper's printed rule 5 only inspects ``TL``;
* the stay counter follows Definition 2's bound (a stay must span at least
  ``d`` timesteps), resolving the paper's off-by-one between Definition 2
  and rule 4.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.constraints import ConstraintSet

__all__ = [
    "NodeState",
    "RelativeDepartures",
    "DepartureFilter",
    "binding_ages",
    "initial_stay",
    "successor_state",
    "source_states",
    "relative_departures",
    "absolute_departures",
    "state_location",
    "state_stay",
    "state_departures",
]

#: The TL component: ``((time, location), ...)`` sorted for canonical hashing.
Departures = Tuple[Tuple[int, str], ...]

#: The TL component rebased to *relative ages*: ``((age, location), ...)``
#: with ``age = tau - time >= 0``, in the same entry order as the absolute
#: tuple it was derived from.  Two nodes at different timesteps share one
#: relative tuple exactly when their TL entries are the same number of
#: timesteps old — the key property the compact engine's transition cache
#: is built on (see :mod:`repro.core.engine`).
RelativeDepartures = Tuple[Tuple[int, str], ...]

#: The hashable node state used as a dict key during graph construction:
#: ``(location, stay, departures)`` — ``tau`` is implicit in the level.
NodeState = Tuple[str, Optional[int], Departures]


def state_location(state: NodeState) -> str:
    """The location component of a node state.

    Callers outside this module must read node-state components through
    these accessors instead of destructuring the tuple — a shape change of
    the ``NodeState`` alias then breaks here, loudly and in one place,
    rather than silently misassigning fields at every unpacking site.
    """
    return state[0]


def state_stay(state: NodeState) -> Optional[int]:
    """The stay (``delta``) component of a node state (see module docs)."""
    return state[1]


def state_departures(state: NodeState) -> Departures:
    """The ``TL`` departures component of a node state (see module docs)."""
    return state[2]


class DepartureFilter:
    """Exact, l-sequence-aware pruning of ``TL`` entries.

    Rule 5 is the only reader of ``TL``: an entry ``(t, l)`` can only
    forbid an arrival at a TT destination ``d`` of ``l``
    (``travelingTime(l, d, v)``) at a timestep ``T`` with ``T - t < v``.
    A node at timestep ``tau`` and location ``x`` hands its entries to
    children at ``tau + 1``, whose own moves arrive at ``T >= tau + 2``,
    and every valid continuation of the node is a walk from ``x`` through
    the l-sequence's supports whose moves ``unreachable`` allows (LT and
    TT only remove walks).  So the node passes ``(t, l)`` on iff such a
    walk — staying is always a legal step — is at some destination ``d``
    at some ``T`` with ``tau + 2 <= T <= t + v - 1``, and a move out of
    ``x`` records its implicit departure ``(tau, x)`` under the same
    test.  No valid continuation can consult a dropped entry, so dropping
    it merges node states without changing the valid trajectories or
    their probabilities (the brute-force tests against
    :mod:`repro.core.naive` cover this).  The window implies the paper's
    ``maxTravelingTime`` horizon, the only expiry its printed rule 6 has.

    The walks are bitsets.  Bit ``r * D + i`` of ``ahead(tau)[x]`` says a
    walk from ``x`` at ``tau`` can be at the ``i``-th of the ``D`` TT
    destinations at ``T = tau + 1 + r``.  One backward pass over the
    supports builds them, one ``|`` per DU-legal support pair, and keeps
    only the rows a window can read (``r <= maxV - 2``), so an int holds
    at most ``(maxV - 1) * D`` bits whatever the duration.  Rows count
    from the node, so the bits an entry of age ``tau - t`` can still bind
    depend on its location and age alone (:meth:`windows`), and the test
    is one ``&``.
    """

    def __init__(self, lsequence, constraints: ConstraintSet) -> None:
        self._windows, index, width, limit = _departure_windows(constraints)
        unreachable = constraints.unreachable_pairs
        last = lsequence.duration - 1
        ahead: List[Dict[str, int]] = [{} for _ in range(last + 1)]
        ahead[last] = dict.fromkeys(lsequence.candidates(last), 0)
        for tau in range(last - 1, -1, -1):
            # What one step onto each candidate of tau + 1 brings within
            # reach, in tau's rows: the candidate itself at row 0, and
            # its own reach one row further.
            steps = []
            for location, bits in ahead[tau + 1].items():
                bits = (bits << width) & limit
                if location in index:
                    bits |= 1 << index[location]
                if bits:
                    steps.append((location, bits))
            level = ahead[tau]
            for location in lsequence.candidates(tau):
                bits = 0
                for step, step_bits in steps:
                    if step == location or \
                            (location, step) not in unreachable:
                        bits |= step_bits
                level[location] = bits
        self._ahead = ahead

    def ahead(self, tau: int) -> Dict[str, int]:
        """Per candidate location at ``tau``: the bits of what a DU-legal
        walk from it can reach (see the class docs).  Do not mutate."""
        return self._ahead[tau]

    def windows(self, location: str) -> Tuple[int, ...]:
        """Per age ``0, 1, ...``: the bits an entry about TT source
        ``location`` can still bind; ages past the tuple bind nothing."""
        return self._windows[location]

    def keep(self, tau: int, location: str, departed_at: int,
             departed_loc: str) -> bool:
        """Whether a node at ``(tau, location)`` passes the entry
        ``(departed_at, departed_loc)`` on to its children."""
        windows = self._windows[departed_loc]
        age = tau - departed_at
        return age < len(windows) and \
            bool(self._ahead[tau].get(location, 0) & windows[age])


@lru_cache(maxsize=16)
def _departure_windows(constraints: ConstraintSet,
                       ) -> Tuple[Mapping[str, Tuple[int, ...]],
                                  Mapping[str, int], int, int]:
    """The constraint set's half of a :class:`DepartureFilter`: per TT
    source its window bits by age, each destination's bit, the row width
    ``D`` and the mask of the rows a window reads.  Memoised, because a
    batch cleans every object under one set; read-only, because every
    caller shares the result."""
    bounds = constraints.traveling_time_bounds
    index = {destination: i for i, destination
             in enumerate(sorted({dest for _src, dest in bounds}))}
    width = len(index)
    by_source: Dict[str, List[Tuple[int, int]]] = {}
    for (source, dest), steps in bounds.items():
        by_source.setdefault(source, []).append((index[dest], steps))
    # An entry of age a binds rows 1 .. v - a - 2 of each destination
    # (tau + 2 <= T <= t + v - 1): one more row per step younger, and
    # none once a > maxV - 3.
    windows: Dict[str, Tuple[int, ...]] = {}
    for source, pairs in by_source.items():
        bits = 0
        per_age: List[int] = []
        for age in range(constraints.max_traveling_time(source) - 3, -1, -1):
            for i, steps in pairs:
                row = steps - age - 2
                if row >= 1:
                    bits |= 1 << (row * width + i)
            per_age.append(bits)
        windows[source] = tuple(reversed(per_age))
    limit = (1 << ((max(bounds.values(), default=1) - 1) * width)) - 1
    return MappingProxyType(windows), MappingProxyType(index), width, limit


def binding_ages(location: str, stay: Optional[int],
                 constraints: ConstraintSet) -> Mapping[str, int]:
    """Per TT source, the oldest age (``now - time``) at which a ``TL``
    entry held by a node at ``(location, stay)`` can still bind; an
    older entry, or one about a location missing here, binds nothing.

    The online twin of :class:`DepartureFilter`, for streams, whose
    future supports are unknown.  An entry ``(t, l)`` held at ``now``
    can only forbid an arrival at a destination ``d`` of
    ``travelingTime(l, d, v)`` at some ``T`` with
    ``now + 1 <= T <= t + v - 1``.  Every valid continuation is a walk
    from the node that moves only where ``unreachable`` allows, leaves a
    location only once its latency stay counter allows, and may always
    stay (TT only removes walks), so the entry binds only if such a walk
    can be at ``d`` by ``t + v - 1``.  The earliest such ``T`` is
    ``now + 1`` when the node is at ``d``; otherwise the walk first
    waits out the stay, ``w = bound - stay`` steps (0 once the bound is
    met), and arrives at ``now + w + 1`` if ``unreachable`` allows the
    direct move, else at ``now + w + 2`` through any location no
    constraint names, which every move may enter and leave (a stream
    may read one at any time).  Locations no constraint names share one
    wildcard row, which keeps the most (ages ``v - 2``), so looking up
    any other ``(location, stay)`` there is safe.  Memoised per
    constraint set and shared by every caller: do not mutate.
    """
    rows, wildcard = _binding_ages(constraints)
    return rows.get((location, stay), wildcard)


@lru_cache(maxsize=16)
def _binding_ages(constraints: ConstraintSet,
                  ) -> Tuple[Dict[Tuple[str, Optional[int]],
                                  Dict[str, int]],
                             Dict[str, int]]:
    """The table behind :func:`binding_ages`: a row per named
    ``(location, stay)`` and the wildcard row.  Plain dicts, read on
    every stream successor; shared, so read-only."""
    bounds = constraints.traveling_time_bounds
    unreachable = constraints.unreachable_pairs
    latencies = constraints.latency_bounds
    # Per source its (steps, destination) pairs, longest bound first: a
    # destination adds at most ``steps - 2``, so a row's scan stops at
    # the first bound that cannot beat the age found so far.
    by_source: Dict[str, List[Tuple[int, str]]] = {}
    for (source, dest), steps in bounds.items():
        by_source.setdefault(source, []).append((steps, dest))
    for pairs in by_source.values():
        pairs.sort(reverse=True)

    def row(location: Optional[str], wait: int) -> Dict[str, int]:
        ages: Dict[str, int] = {}
        for source, pairs in by_source.items():
            oldest = -1
            for steps, dest in pairs:
                if steps - 2 <= oldest:
                    break
                if dest == location:
                    first = 1
                elif (location, dest) in unreachable:
                    first = wait + 2
                else:
                    first = wait + 1
                oldest = max(oldest, steps - 1 - first)
            ages[source] = oldest
        return ages

    named = set(latencies)
    for pair in list(unreachable) + list(bounds):
        named.update(pair)
    rows: Dict[Tuple[str, Optional[int]], Dict[str, int]] = {}
    for location in named:
        rows[(location, None)] = row(location, 0)
        bound = latencies.get(location, 1)
        for stay in range(1, bound):
            rows[(location, stay)] = row(location, bound - stay)
    return rows, row(None, 0)


def _binding_departures(state: NodeState, tau: int,
                        constraints: ConstraintSet) -> NodeState:
    """``state`` at timestep ``tau`` with only the ``TL`` entries its
    row of :func:`binding_ages` keeps; reuses the tuple if unchanged."""
    location, stay, departures = state
    if not departures:
        return state
    rows, wildcard = _binding_ages(constraints)
    oldest = rows.get((location, stay), wildcard).get
    kept = tuple([(t, l) for t, l in departures if tau - t <= oldest(l, -1)])
    if len(kept) == len(departures):
        return state
    return (location, stay, kept)


def initial_stay(location: str, constraints: ConstraintSet) -> Optional[int]:
    """The stay counter right after arriving at ``location``.

    ``None`` when no latency constraint binds (no constraint, or a bound of
    1 which any stay satisfies); otherwise 1 (the arrival timestep counts).
    """
    bound = constraints.latency_of(location)
    if bound is None or bound <= 1:
        return None
    return 1


def _advance_stay(stay: Optional[int], location: str,
                  constraints: ConstraintSet) -> Optional[int]:
    """The stay counter after one more timestep at ``location``."""
    if stay is None:
        return None
    bound = constraints.latency_of(location)
    new_stay = stay + 1
    if bound is None or new_stay >= bound:
        return None
    return new_stay


def _aged_departures(departures: Departures, tau: int, location: str,
                     constraints: ConstraintSet,
                     departure_filter: Optional[DepartureFilter],
                     ) -> Departures:
    """``TL`` of a node at ``(tau, location)`` as its child at ``tau + 1``
    carries it (rules 3 and 6); reuses the tuple if unchanged.

    Without a :class:`DepartureFilter` an entry ``(t, l)`` lives while
    ``tau + 1 - t < maxTravelingTime(l)``.
    """
    if departure_filter is not None:
        keep = departure_filter.keep
        for t, l in departures:
            if not keep(tau, location, t, l):
                return tuple((t, l) for (t, l) in departures
                             if keep(tau, location, t, l))
        return departures
    arrival = tau + 1
    max_tt = constraints.max_traveling_time
    for t, l in departures:
        if arrival - t >= max_tt(l):
            return tuple((t, l) for (t, l) in departures
                         if arrival - t < max_tt(l))
    return departures


def _unchecked_successor(tau: int, state: NodeState, destination: str,
                         constraints: ConstraintSet,
                         departure_filter: Optional[DepartureFilter],
                         ) -> Optional[NodeState]:
    """Definition 3 rules 3-6, with rule 2 (DU) assumed already checked.

    The forward phase pre-filters destinations by direct reachability per
    (level, location), so rule 2 is hoisted out of this hot path; use
    :func:`successor_state` everywhere else.
    """
    location, stay, departures = state
    arrival = tau + 1

    if destination == location:
        # Rule 3 — staying: bump the stay counter, age the departures.
        new_stay = _advance_stay(stay, location, constraints)
        new_departures = _aged_departures(departures, tau, location,
                                          constraints, departure_filter)
        return (destination, new_stay, new_departures)

    # Rule 4 — leaving is only legal once the latency bound is met.
    if stay is not None:
        return None

    # Rule 5 — traveling-time checks for the arrival at ``destination``,
    # including the implicit departure (tau, location) of this very move.
    direct = constraints.traveling_time(location, destination)
    if direct is not None and arrival - tau < direct:
        return None
    for departed_at, departed_loc in departures:
        steps = constraints.traveling_time(departed_loc, destination)
        if steps is not None and arrival - departed_at < steps:
            return None

    # Rule 6 — the new TL: record this departure if it can ever matter,
    # age out expired/pointless entries, drop entries about the destination
    # itself, and keep only the latest departure per location.
    if departures or location in constraints.tt_sources:
        entries: Dict[str, int] = {}
        for departed_at, departed_loc in departures:
            entries[departed_loc] = max(
                entries.get(departed_loc, departed_at), departed_at)
        if location in constraints.tt_sources:
            entries[location] = tau
        if departure_filter is not None:
            keep = departure_filter.keep
            kept = [(t, l) for l, t in entries.items()
                    if l != destination and keep(tau, location, t, l)]
        else:
            max_tt = constraints.max_traveling_time
            kept = [(t, l) for l, t in entries.items()
                    if l != destination and arrival - t < max_tt(l)]
        if len(kept) > 1:
            kept.sort()
        new_departures = tuple(kept)
    else:
        new_departures = ()
    return (destination, initial_stay(destination, constraints), new_departures)


def successor_state(tau: int, state: NodeState, destination: str,
                    constraints: ConstraintSet,
                    departure_filter: Optional[DepartureFilter] = None,
                    ) -> Optional[NodeState]:
    """The successor of ``state`` (at timestep ``tau``) that is at
    ``destination`` at ``tau + 1`` — or ``None`` if no legal successor exists.

    Implements Definition 3: at most one successor state exists per
    destination location, because ``stay`` and ``departures`` of the
    successor are functions of the predecessor state.  The optional
    ``departure_filter`` enables the exact l-sequence-aware ``TL`` pruning
    (see :class:`DepartureFilter`).
    """
    # Rule 2 — direct unreachability.
    if constraints.forbids_step(state[0], destination):
        return None
    return _unchecked_successor(tau, state, destination, constraints,
                                departure_filter)


def relative_departures(departures: Departures, tau: int) -> RelativeDepartures:
    """``TL`` rebased to ages relative to ``tau``: ``(t, l) -> (tau - t, l)``.

    Entry order is preserved, so the absolute canonical order (sorted by
    ``(time, location)``) maps to the relative canonical order (sorted by
    ``(-age, location)``) and :func:`absolute_departures` is an exact
    inverse at the same ``tau``.  This is the key helper of the compact
    engine's transition cache: rules 3, 5 and 6 of Definition 3 compare
    departure times only through differences ``arrival - time``, which ages
    express directly, making memoised successor rows reusable across
    timesteps.
    """
    return tuple((tau - time, location) for time, location in departures)


def absolute_departures(relative: RelativeDepartures, tau: int) -> Departures:
    """The inverse of :func:`relative_departures` at node timestep ``tau``."""
    return tuple((tau - age, location) for age, location in relative)


def source_states(locations: Iterable[str],
                  constraints: ConstraintSet) -> Dict[str, NodeState]:
    """The source-node states (timestep 0) for the given candidate locations.

    At timestep 0 nothing is known about the past: ``TL`` is empty and every
    stay starts fresh (Definition 2 treats timestep 0 as the start of a
    stay, so latency bounds apply in full).
    """
    return {location: (location, initial_stay(location, constraints), ())
            for location in locations}
