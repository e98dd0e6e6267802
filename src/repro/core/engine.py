"""The compact cleaning engine: Algorithm 1 over interned, columnar state.

:func:`build_ct_graph` re-derives every successor state with
``_unchecked_successor`` at every level — ``O(duration * S * L)`` calls,
each rebuilding stay counters and ``TL`` tuples — even though reader
patterns, and therefore frontier expansions, repeat heavily along a
trajectory.  This module exploits that repetition without changing a
single bit of the output:

* **Interning** — locations and node states become small ints.  States are
  stored in *relative* form ``(location, stay, ((age, location), ...))``
  with ``age = tau - departure_time`` (see
  :func:`repro.core.nodes.relative_departures`): two nodes at different
  timesteps whose ``TL`` entries are equally old share one interned state.

* **Memoised transitions** — Definition 3's rules 3–6 compare departure
  times only through differences ``arrival - time``, which relative ages
  express directly, so the full successor row of a state under an ordered
  candidate support is a pure function of ``(state, support)`` — except
  where the :class:`~repro.core.nodes.DepartureFilter` prunes ``TL``
  entries by what a walk from the node's *timestep* can still reach.
  Those per-entry keep decisions are folded into a bitmask
  (:func:`_keep_masks`) that widens the cache key: rows are keyed
  ``(state, support, mask)`` and stay exact — the engine never
  approximates, it only caches more finely where the filter makes
  transitions time-dependent.  The cache lives in an
  :class:`EngineCache`, which a
  :class:`~repro.runtime.plan.SharedCleaningPlan` carries across the
  objects of a batch (rows depend on the constraint set, not the object).

* **Columnar sweep** — the forward phase records each level's edges as
  flat parallel arrays ``(parent index, child index, probability)`` in
  parent-major order; the backward survival sweep then runs over arrays
  instead of per-node dicts, and only the *surviving* nodes and edges are
  materialised as :class:`~repro.core.ctgraph.CTNode` objects at the end.

* **Streaming rows** — the online filtered-forward step
  (:meth:`EngineCache.advance`) reads the same memoised rows.  Online
  there is no departure filter: each child keeps the ``TL`` entries
  that a walk from its own ``(location, stay)`` can still bind
  (:func:`~repro.core.nodes.binding_ages`), and the child is a pure
  function of the parent state and the destination, so stream rows are
  keyed ``(state, support)``.  A live frontier is a
  :class:`CompactFrontier`.

The result is **bit-exact** with the reference builder: same nodes in the
same order, same edges in the same insertion order, and identical
floating-point arithmetic (per-parent mass accumulated in edge order,
``weight / mass`` conditioning before the per-level rescale, ``math.fsum``
for the source total).  The property tests pin graphs *and* stats counters
against :func:`~repro.core.algorithm.build_ct_graph` over random map
plans; see ``docs/perf.md`` for the argument and the benchmark numbers.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.algorithm import CleaningOptions, CleaningStats, _run_precheck
from repro.core.constraints import ConstraintSet
from repro.core.ctgraph import CTGraph, CTNode
from repro.core.flatgraph import FlatCTGraph
from repro.core.lsequence import LSequence
from repro.core.nodes import (
    DepartureFilter,
    NodeState,
    _advance_stay,
    binding_ages,
    initial_stay,
    state_departures,
    state_location,
    state_stay,
)
from repro.errors import ReadingSequenceError, ZeroMassError

__all__ = ["CompactFrontier", "EngineCache", "STREAM_ROW_CAP",
           "build_ct_graph_compact"]

#: An interned node state in relative form:
#: ``(location id, stay, ((age, location id), ...))``.
RelState = Tuple[int, Optional[int], Tuple[Tuple[int, int], ...]]

#: A memoised successor row: per legal destination, its position in the
#: ordered candidate support and the interned state of the successor.
Row = Tuple[Tuple[int, int], ...]

#: How many stream rows one cache memoises.  Past the cap, the rows and
#: supports a step needs are computed and used but not stored, so a
#: long-lived fleet cache stays bounded on streams that keep minting new
#: states.  Interned states stay: a live frontier refers to them by id.
STREAM_ROW_CAP = 65_536


class EngineCache:
    """Interning tables plus the memoised transition rows, per constraint set.

    The cache is keyed content: rows depend on the constraint set and on
    the interned ``(state, ordered support, departure-filter mask)`` triple
    only, never on the individual l-sequence — all of the filter's
    time-dependence is captured by the mask.  One cache therefore serves
    every object cleaned under the same constraints;
    :meth:`repro.runtime.plan.SharedCleaningPlan.engine_cache` hands one to
    each object of a batch, and a
    :class:`~repro.runtime.StreamSessionManager` one to each session of a
    fleet.  Not thread-safe (plain dicts), like the plan.
    """

    __slots__ = ("constraints", "_location_ids", "_location_names",
                 "_state_ids", "_states", "_support_ids", "_supports",
                 "_support_names", "_du_rows", "_rows", "_levels",
                 "_stream_rows")

    def __init__(self, constraints: ConstraintSet) -> None:
        self.constraints = constraints
        self._location_ids: Dict[str, int] = {}
        self._location_names: List[str] = []
        self._state_ids: Dict[RelState, int] = {}
        self._states: List[RelState] = []
        self._support_ids: Dict[Tuple[int, ...], int] = {}
        self._supports: List[Tuple[int, ...]] = []
        #: Fast path for the hot loop: ordered location-*name* tuples map
        #: straight to their interned support id (skips per-level
        #: name -> id translation on repeated reader patterns).
        self._support_names: Dict[Tuple[str, ...], int] = {}
        self._du_rows: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._rows: Dict[Tuple[int, int, int], Row] = {}
        #: Whole-level memo: periodic workloads repeat entire frontiers,
        #: so the expansion of a full ``(frontier, support[, masks])``
        #: level — next sids, CSR offsets, child indices and support
        #: positions — is cached as one unit.  Derived purely from
        #: :attr:`_rows` entries, hence exact wherever they are.
        self._levels: Dict[Tuple, Tuple] = {}
        #: Stream rows keyed ``(state, support)``: online each child's
        #: ``TL`` is pruned by its own ``(location, stay)``, a function
        #: of the state and the destination, so no mask needs a key
        #: slot.  At most :data:`STREAM_ROW_CAP` entries.
        self._stream_rows: Dict[Tuple[int, int], Row] = {}

    # ------------------------------------------------------------------
    # interning
    # ------------------------------------------------------------------
    def location_id(self, name: str) -> int:
        lid = self._location_ids.get(name)
        if lid is None:
            lid = len(self._location_names)
            self._location_ids[name] = lid
            self._location_names.append(name)
        return lid

    def state_id(self, state: RelState) -> int:
        sid = self._state_ids.get(state)
        if sid is None:
            sid = len(self._states)
            self._state_ids[state] = sid
            self._states.append(state)
        return sid

    def support_id(self, support: Tuple[int, ...]) -> int:
        """Intern an *ordered* tuple of candidate location ids.

        Order matters: edge insertion order — and with it the float
        accumulation order of the backward sweep — follows the
        l-sequence's candidate order, so two supports with equal sets but
        different orders are deliberately distinct keys.
        """
        uid = self._support_ids.get(support)
        if uid is None:
            uid = len(self._supports)
            self._support_ids[support] = uid
            self._supports.append(support)
        return uid

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def cached_transitions(self) -> int:
        """How many memoised ``(state, support, mask)`` rows exist."""
        return len(self._rows)

    @property
    def cached_tables(self) -> int:
        """How many memoised ``(state, support)`` stream rows exist."""
        return len(self._stream_rows)

    @property
    def interned_states(self) -> int:
        return len(self._states)

    def __repr__(self) -> str:
        return (f"EngineCache(states={len(self._states)}, "
                f"rows={len(self._rows)}, "
                f"stream_rows={len(self._stream_rows)})")

    # ------------------------------------------------------------------
    # the memoised transition relation
    # ------------------------------------------------------------------
    def _compute_row(self, sid: int, support_id: int,
                     mask: Optional[int]) -> Row:
        """The row of one interned ``(state, support, mask)`` key, or
        with ``mask=None`` of a ``(state, support)`` stream row; the
        rule-2 positions are memoised per ``(location, support)``."""
        location_id = self._states[sid][0]
        support = self._supports[support_id]
        du_key = (location_id, support_id)
        positions = self._du_rows.get(du_key)
        if positions is None:
            positions = self._reachable(location_id, support)
            self._du_rows[du_key] = positions
        return self._successors(sid, support, positions, mask)

    def _reachable(self, location_id: int,
                   support: Tuple[int, ...]) -> Tuple[int, ...]:
        """Rule 2: the positions of ``support`` not directly unreachable
        from the location."""
        names = self._location_names
        location = names[location_id]
        forbids = self.constraints.forbids_step
        return tuple(pos for pos, dest_id in enumerate(support)
                     if not forbids(location, names[dest_id]))

    def _successors(self, sid: int, support: Tuple[int, ...],
                    positions: Tuple[int, ...], mask: Optional[int]) -> Row:
        """Definition 3 rules 3–6 for one state over the rule-2 positions.

        The mirror of ``_unchecked_successor`` in relative terms: rule 5
        reads ``arrival - time`` as ``age + 1``.  A batch row's rule-3/6
        ``TL`` keep decisions come from ``mask`` (bit ``k`` = entry ``k``
        survives; the bit past the last entry = record the new
        departure); a build without a :class:`DepartureFilter` has no TT
        sources, every ``TL`` is empty and the mask is uniformly 0.  A
        stream row (``mask is None``) hands every entry on, and each child
        keeps the entries its own ``(location, stay)`` row of
        :func:`~repro.core.nodes.binding_ages` allows, as in the oracle
        ``advance_frontier``.  States produced
        here keep the canonical invariants of the reference builder: at
        most one entry per location, never the state's own location,
        sorted by ``(-age, location name)`` — the relative image of the
        absolute ``(time, location)`` order.
        """
        constraints = self.constraints
        names = self._location_names
        location_id, stay, rel_deps = self._states[sid]
        location = names[location_id]
        traveling_time = constraints.traveling_time
        online = mask is None
        if online:
            mask = -1
        new_departure = location in constraints.tt_sources and \
            bool(mask >> len(rel_deps) & 1)
        row: List[Tuple[int, int]] = []
        for pos in positions:
            dest_id = support[pos]
            if dest_id == location_id:
                # Rule 3 — staying: bump the stay, age the departures.
                child_stay = _advance_stay(stay, location, constraints)
                entries = [(age + 1, dlid)
                           for bit, (age, dlid) in enumerate(rel_deps)
                           if mask >> bit & 1]
            else:
                # Rule 4 — leaving before the latency bound is met.
                if stay is not None:
                    continue
                # Rule 5 — traveling-time checks, including the implicit
                # departure of this very move (arrival - tau == 1).
                destination = names[dest_id]
                direct = traveling_time(location, destination)
                if direct is not None and direct > 1:
                    continue
                blocked = False
                for age, dlid in rel_deps:
                    steps = traveling_time(names[dlid], destination)
                    if steps is not None and age + 1 < steps:
                        blocked = True
                        break
                if blocked:
                    continue
                # Rule 6 — the successor's TL: surviving entries age by
                # one, entries about the destination itself are dropped,
                # and this move's own departure is recorded when it can
                # still matter (the mask's extra bit).
                entries = [(age + 1, dlid)
                           for bit, (age, dlid) in enumerate(rel_deps)
                           if dlid != dest_id and mask >> bit & 1]
                if new_departure:
                    entries.append((1, location_id))
                if len(entries) > 1:
                    entries.sort(key=lambda entry: (-entry[0],
                                                    names[entry[1]]))
                child_stay = initial_stay(destination, constraints)
            if online and entries:
                ages = binding_ages(names[dest_id], child_stay, constraints)
                entries = [(age, dlid) for age, dlid in entries
                           if age <= ages.get(names[dlid], -1)]
            row.append((pos, self.state_id((dest_id, child_stay,
                                            tuple(entries)))))
        return tuple(row)

    # ------------------------------------------------------------------
    # the online filtered-forward step
    # ------------------------------------------------------------------
    def seed(self, row: Mapping[str, float]) -> "CompactFrontier":
        """The timestep-0 frontier (``advance_frontier`` at ``tau == 0``)."""
        constraints = self.constraints
        masses = {self.state_id((self.location_id(location),
                                 initial_stay(location, constraints), ())):
                  probability for location, probability in row.items()}
        return CompactFrontier(self, masses, 0)

    def adopt(self, frontier: Mapping[NodeState, float],
              tau: int) -> "CompactFrontier":
        """An oracle-form frontier at timestep ``tau`` in compact form,
        with its order and float bits unchanged."""
        location_id = self.location_id
        masses: Dict[int, float] = {}
        for state, mass in frontier.items():
            relative = tuple((tau - time, location_id(location))
                             for time, location in state_departures(state))
            masses[self.state_id((location_id(state_location(state)),
                                  state_stay(state), relative))] = mass
        return CompactFrontier(self, masses, tau)

    def advance(self, frontier: "CompactFrontier",
                row: Mapping[str, float]) -> "CompactFrontier":
        """One step of the filtered-forward recursion over memoised rows.

        Bit-identical to :func:`~repro.core.incremental.advance_frontier`:
        rows list successors in support order, so the states come out in
        the oracle's insertion order and each successor's mass is summed
        in the oracle's order, then peak-rescaled the same way.  Returns
        an empty (falsy) frontier when no valid continuation exists.
        """
        names_key = tuple(row)
        support_id = self._support_names.get(names_key)
        support = None
        if support_id is None:
            support = tuple([self.location_id(name) for name in names_key])
            support_id = self._support_ids.get(support)
            # Past the cap a new support stays un-interned (id None).
            if len(self._stream_rows) < STREAM_ROW_CAP:
                if support_id is None:
                    support_id = self.support_id(support)
                self._support_names[names_key] = support_id
        probabilities = tuple(row.values())
        row_get = self._stream_rows.get
        advanced: Dict[int, float] = {}
        get = advanced.get
        # Rule-2 positions per location, for a support not interned.
        reachable: Dict[int, Tuple[int, ...]] = {}
        for sid, mass in frontier.masses.items():
            successors = row_get((sid, support_id))
            if successors is None:
                successors = self._stream_row(sid, support_id, support,
                                              reachable)
            for pos, child in successors:
                advanced[child] = get(child, 0.0) + mass * probabilities[pos]
        # The oracle's underflow guard, verbatim.
        peak = max(advanced.values(), default=0.0)
        if peak > 0.0 and peak != 1.0:
            advanced = {sid: mass / peak for sid, mass in advanced.items()}
        return CompactFrontier(self, advanced, frontier.tau + 1)

    def _stream_row(self, sid: int, support_id: Optional[int],
                    support: Optional[Tuple[int, ...]],
                    reachable: Dict[int, Tuple[int, ...]]) -> Row:
        """Compute one stream row; memoise it while under the cap.

        ``support_id`` is ``None`` for a support first seen past the cap,
        which is never interned: its rows use the ``support`` tuple, and
        its rule-2 positions live in the step's ``reachable``.
        """
        if support_id is None:
            location_id = self._states[sid][0]
            positions = reachable.get(location_id)
            if positions is None:
                positions = self._reachable(location_id, support)
                reachable[location_id] = positions
            return self._successors(sid, support, positions, None)
        row = self._compute_row(sid, support_id, None)
        if len(self._stream_rows) < STREAM_ROW_CAP:
            self._stream_rows[(sid, support_id)] = row
        return row


class CompactFrontier:
    """A live forward frontier: ``{interned state id: mass}`` plus ``tau``.

    The compact twin of the oracle's ``Dict[NodeState, float]``.  The
    states are relative (:mod:`repro.core.engine`), in the oracle's
    insertion order; ``tau`` is the timestep the frontier describes,
    which rebases the relative ages to absolute departure times.  Falsy
    exactly when no valid continuation exists, like the empty dict.
    """

    __slots__ = ("cache", "masses", "tau")

    def __init__(self, cache: EngineCache, masses: Dict[int, float],
                 tau: int) -> None:
        self.cache = cache
        self.masses = masses
        self.tau = tau

    def __len__(self) -> int:
        return len(self.masses)

    def __bool__(self) -> bool:
        return bool(self.masses)

    def to_dict(self) -> Dict[NodeState, float]:
        """The oracle-form dict: absolute states, same order, same bits."""
        states = self.cache._states
        names = self.cache._location_names
        tau = self.tau
        result: Dict[NodeState, float] = {}
        for sid, mass in self.masses.items():
            location_id, stay, rel_deps = states[sid]
            result[(names[location_id], stay,
                    tuple((tau - age, names[dlid])
                          for age, dlid in rel_deps))] = mass
        return result

    def location_masses(self) -> Dict[str, float]:
        """Unnormalised mass per location, in the oracle's key order."""
        states = self.cache._states
        names = self.cache._location_names
        raw: Dict[str, float] = {}
        for sid, mass in self.masses.items():
            location = names[states[sid][0]]
            raw[location] = raw.get(location, 0.0) + mass
        return raw


def _keep_masks(frontier: Tuple[int, ...], states: List[RelState],
                windows: Mapping[int, Tuple[int, ...]],
                ahead: Mapping[int, int]) -> List[int]:
    """The rule-3/6 ``TL`` keep bits of each frontier state at one level.

    Bit ``k`` is set when the state hands its ``k``-th entry on to its
    children, and the bit past the last entry when a move out of the
    state's location records the implicit departure: the
    :class:`~repro.core.nodes.DepartureFilter` test, read by location
    id — ``windows`` per TT source and ``ahead`` the level's reach.  The
    level enters through ``ahead`` alone; the masks join the row keys,
    so memoised rows stay exact.
    """
    masks: List[int] = []
    append = masks.append
    for sid in frontier:
        lid, _stay, rel_deps = states[sid]
        reach = ahead[lid]
        mask = 0
        if reach:
            bit = 1
            for age, dlid in rel_deps:
                window = windows[dlid]
                if age < len(window) and reach & window[age]:
                    mask |= bit
                bit <<= 1
            window = windows.get(lid)
            if window and reach & window[0]:
                mask |= bit
        append(mask)
    return masks


def build_ct_graph_compact(lsequence: LSequence, constraints: ConstraintSet,
                           options: CleaningOptions = CleaningOptions(), *,
                           plan=None) -> CTGraph:
    """Algorithm 1 through the compact engine (see the module docstring).

    Drop-in for :func:`~repro.core.algorithm.build_ct_graph` — same
    contract, same plan/pre-check semantics, bit-exact output.  Normally
    reached via ``CleaningOptions(engine=...)``; calling it directly skips
    the ``engine`` option entirely.
    """
    if plan is not None:
        if plan.constraints != constraints:
            raise ReadingSequenceError(
                "the shared cleaning plan was built for a different "
                "constraint set")
        plan.precheck(lsequence, options)
        cache = plan.engine_cache()
        if cache.constraints != constraints:
            raise ReadingSequenceError(
                "the plan's engine cache was built for a different "
                "constraint set")
    else:
        if options.precheck != "off":
            _run_precheck(lsequence, constraints, options)
        cache = EngineCache(constraints)

    stats = CleaningStats()
    forward_started = time.perf_counter()
    duration = lsequence.duration
    last = duration - 1
    strict = options.strict_truncation

    location_id = cache.location_id
    states = cache._states
    names = cache._location_names
    rows = cache._rows

    # ------------------------------------------------------------------
    # initialisation: source states from the timestep-0 candidates
    # ------------------------------------------------------------------
    source_sids: List[int] = []
    prior_probabilities: List[float] = []
    for location in lsequence.support(0):
        stay = initial_stay(location, constraints)
        if strict and last == 0 and stay is not None:
            continue
        source_sids.append(cache.state_id((location_id(location), stay, ())))
        prior_probabilities.append(lsequence.probability(0, location))
        stats.nodes_created += 1
    if not source_sids:
        raise ZeroMassError(
            "no source location satisfies the constraints at timestep 0")

    # ------------------------------------------------------------------
    # forward phase: columnar levels, memoised successor rows
    # ------------------------------------------------------------------
    # The DepartureFilter decides which ``TL`` entries a frontier state
    # hands on; its per-level reach and per-(source, age) windows are
    # read by location id, so each keep decision is one ``&``.
    departure_filter = (DepartureFilter(lsequence, constraints)
                        if constraints.tt_sources else None)
    windows: Dict[int, Tuple[int, ...]] = {}
    if departure_filter is not None:
        windows = {location_id(name): departure_filter.windows(name)
                   for name in constraints.tt_sources}
    location_ids = cache._location_ids
    level_sids: List[Tuple[int, ...]] = [tuple(source_sids)]
    # The run's edges live in two flat arrays shared by every level; level
    # ``tau`` owns the slice described by its (absolute) CSR offsets —
    # ``level_offsets[tau][i]:level_offsets[tau][i+1]`` are the edges of
    # the i-th frontier node, child indices *local to level tau + 1*, in
    # the insertion order the reference builder would use.
    all_children: List[int] = []
    all_probabilities: List[float] = []
    extend_children = all_children.extend
    extend_probabilities = all_probabilities.extend
    level_offsets: List[List[int]] = []
    compute_row = cache._compute_row
    row_get = rows.get
    support_names = cache._support_names
    level_rows = cache._levels
    level_get = level_rows.get
    frontier: Tuple[int, ...] = level_sids[0]
    for tau in range(duration - 1):
        candidates = lsequence.candidates(tau + 1)
        names_key = tuple(candidates)
        support_id = support_names.get(names_key)
        if support_id is None:
            support_id = cache.support_id(
                tuple([location_id(name) for name in names_key]))
            support_names[names_key] = support_id
        values = tuple(candidates.values())
        filter_binding = strict and tau + 1 == last

        # Periodic workloads repeat whole frontiers, so the expansion of
        # the full level is memoised as one unit: with a departure filter
        # the per-node masks join the key (they capture all of the
        # filter's time-dependence); the strict last level bypasses the
        # memo (its rows are post-filtered).
        if departure_filter is not None:
            masks = _keep_masks(frontier, states, windows, {
                location_ids[name]: bits
                for name, bits in departure_filter.ahead(tau).items()})
            level_key = (frontier, support_id, tuple(masks))
        else:
            masks = []
            level_key = (frontier, support_id)
        cached_level = None if filter_binding else level_get(level_key)

        if cached_level is None:
            next_sids: List[int] = []
            next_index: Dict[int, int] = {}
            next_get = next_index.get
            relative_offsets: List[int] = [0]
            children: List[int] = []
            positions: List[int] = []
            append_offset = relative_offsets.append
            append_child = children.append
            append_position = positions.append
            for i, sid in enumerate(frontier):
                key = (sid, support_id, masks[i] if masks else 0)
                row = row_get(key)
                if row is None:
                    row = compute_row(sid, support_id, key[2])
                    rows[key] = row
                for pos, child_sid in row:
                    if filter_binding and states[child_sid][1] is not None:
                        continue
                    child_index = next_get(child_sid)
                    if child_index is None:
                        child_index = len(next_sids)
                        next_index[child_sid] = child_index
                        next_sids.append(child_sid)
                    append_child(child_index)
                    append_position(pos)
                append_offset(len(children))
            cached_level = (tuple(next_sids), relative_offsets,
                            children, positions)
            if not filter_binding:
                level_rows[level_key] = cached_level

        next_frontier, relative_offsets, children, positions = cached_level
        base = len(all_children)
        extend_children(children)
        extend_probabilities([values[pos] for pos in positions])
        level_offsets.append([base + offset for offset in relative_offsets])
        stats.nodes_created += len(next_frontier)
        stats.edges_created += len(children)
        if not next_frontier:
            raise ZeroMassError(
                f"no trajectory can legally continue past timestep {tau}")
        level_sids.append(next_frontier)
        frontier = next_frontier

    # ------------------------------------------------------------------
    # backward phase: survival sweep over the flat edge arrays
    # ------------------------------------------------------------------
    backward_started = time.perf_counter()
    stats.forward_seconds = backward_started - forward_started
    survivals: List[List[float]] = [[] for _ in range(duration)]
    survivals[last] = [1.0] * len(level_sids[last])
    level_masses: List[List[float]] = [[] for _ in range(max(0, last))]
    weights: List[float] = [0.0] * len(all_children)
    nodes_removed = 0
    edges_removed = 0
    for tau in range(last - 1, -1, -1):
        edge_offsets = level_offsets[tau]
        child_survival = survivals[tau + 1]
        count = len(level_sids[tau])
        mass_row = [0.0] * count
        survival_row = [0.0] * count
        level_max = 0.0
        removed = 0
        start = edge_offsets[0]
        if 0.0 not in child_survival:
            # Fast path — every child is alive, so every edge survives
            # and the per-parent mass is the plain sum of its weight
            # slice.  ``sum`` adds left to right exactly like the
            # reference's ``mass += weight`` loop (starting from 0 adds
            # nothing to the first float), so this is bit-identical.
            level_end = edge_offsets[count]
            weights[start:level_end] = [
                all_probabilities[e] * child_survival[all_children[e]]
                for e in range(start, level_end)]
            for i in range(count):
                end = edge_offsets[i + 1]
                mass = sum(weights[start:end])
                if mass <= 0.0:
                    edges_removed += end - start
                    removed += 1
                else:
                    mass_row[i] = mass
                    survival_row[i] = mass
                    if mass > level_max:
                        level_max = mass
                start = end
        else:
            for i in range(count):
                end = edge_offsets[i + 1]
                mass = 0.0
                alive_edges = 0
                for e in range(start, end):
                    survival = child_survival[all_children[e]]
                    if survival > 0.0:
                        # Per-parent mass accumulates in edge insertion
                        # order — the float-sum order the reference
                        # builder uses.
                        weight = all_probabilities[e] * survival
                        weights[e] = weight
                        mass += weight
                        alive_edges += 1
                if mass <= 0.0:
                    edges_removed += end - start
                    removed += 1
                else:
                    edges_removed += end - start - alive_edges
                    mass_row[i] = mass
                    survival_row[i] = mass
                    if mass > level_max:
                        level_max = mass
                start = end
        nodes_removed += removed
        if removed == count:
            stats.nodes_removed = nodes_removed
            stats.edges_removed = edges_removed
            raise ZeroMassError(
                "no trajectory compatible with the readings satisfies "
                "the constraints")
        # Rescale so the level's largest survival is 1 (underflow guard);
        # conditioning below divides by the *unrescaled* mass, exactly as
        # the reference does before its rescale.
        if level_max > 0.0:
            for i in range(count):
                if survival_row[i] > 0.0:
                    survival_row[i] /= level_max
        survivals[tau] = survival_row
        level_masses[tau] = mass_row
    stats.nodes_removed = nodes_removed
    stats.edges_removed = edges_removed
    stats.sweep_seconds = time.perf_counter() - backward_started

    if options.columnar_materialize:
        # ------------------------------------------------------------------
        # flat materialisation: the backward sweep's arrays become the
        # FlatCTGraph directly — no CTNode is ever created.  Interning,
        # node order, edge order and every conditioned float mirror the
        # node path + ``to_flat()`` exactly (pinned by the parity suite).
        # ------------------------------------------------------------------
        flat_ids: Dict[int, int] = {}
        flat_names: List[str] = []
        flat_locations: List[Tuple[int, ...]] = []
        flat_stays: List[Tuple[Optional[int], ...]] = []
        index_maps: List[List[int]] = []
        for tau in range(duration):
            sids = level_sids[tau]
            # A node is dead iff its *pre-rescale* mass was <= 0 — the
            # criterion the node path uses too.
            mass_row = level_masses[tau] if tau != last else None
            loc_row: List[int] = []
            stay_row: List[Optional[int]] = []
            index_map = [-1] * len(sids)
            for i, sid in enumerate(sids):
                if mass_row is not None and mass_row[i] <= 0.0:
                    continue
                lid, stay, _rel_deps = states[sid]
                fid = flat_ids.get(lid)
                if fid is None:
                    fid = len(flat_names)
                    flat_ids[lid] = fid
                    flat_names.append(names[lid])
                index_map[i] = len(loc_row)
                loc_row.append(fid)
                stay_row.append(stay)
            flat_locations.append(tuple(loc_row))
            flat_stays.append(tuple(stay_row))
            index_maps.append(index_map)
        flat_offsets: List[Tuple[int, ...]] = []
        flat_children: List[Tuple[int, ...]] = []
        flat_probabilities: List[Tuple[float, ...]] = []
        for tau in range(duration - 1):
            edge_offsets = level_offsets[tau]
            mass_row = level_masses[tau]
            child_map = index_maps[tau + 1]
            child_survival = survivals[tau + 1]
            offsets: List[int] = [0]
            children: List[int] = []
            probabilities: List[float] = []
            for i in range(len(level_sids[tau])):
                mass = mass_row[i]
                if mass <= 0.0:
                    continue
                for e in range(edge_offsets[i], edge_offsets[i + 1]):
                    child_index = all_children[e]
                    # An edge survives with its (alive) parent iff the
                    # child is alive, even when the conditioned weight
                    # underflows to 0.0.
                    if child_survival[child_index] > 0.0:
                        children.append(child_map[child_index])
                        probabilities.append(weights[e] / mass)
                offsets.append(len(children))
            flat_offsets.append(tuple(offsets))
            flat_children.append(tuple(children))
            flat_probabilities.append(tuple(probabilities))
        survival_row = survivals[0]
        source_row = [prior_probabilities[i] * survival_row[i]
                      for i in range(len(level_sids[0]))
                      if index_maps[0][i] >= 0]
        total = math.fsum(source_row)
        if total <= 0.0:
            raise ZeroMassError(
                "the valid trajectories have zero total prior probability")
        stats.backward_seconds = time.perf_counter() - backward_started
        if options.store_materialize:
            # The tuples above are written as they are; the caller gets
            # the mmap view of the file, as a later load_ctg would.
            from repro.store.format import write_mapped_ctg

            return write_mapped_ctg(
                options.output,
                location_names=flat_names,
                locations=flat_locations,
                stays=flat_stays,
                edge_offsets=flat_offsets,
                edge_children=flat_children,
                edge_probabilities=flat_probabilities,
                source_probabilities=[p / total for p in source_row],
                stats=stats)
        return FlatCTGraph(
            location_names=tuple(flat_names),
            locations=tuple(flat_locations),
            stays=tuple(flat_stays),
            edge_offsets=tuple(flat_offsets),
            edge_children=tuple(flat_children),
            edge_probabilities=tuple(flat_probabilities),
            source_probabilities=tuple(p / total for p in source_row),
            stats=stats)

    # ------------------------------------------------------------------
    # materialisation: surviving nodes and edges, reference order
    # ------------------------------------------------------------------
    node_table: List[List[Optional[CTNode]]] = []
    for tau in range(duration):
        sids = level_sids[tau]
        row_nodes: List[Optional[CTNode]] = [None] * len(sids)
        # A node is dead iff its *pre-rescale* mass was <= 0 — the exact
        # criterion the reference uses to pop it (the rescaled survival
        # can in principle underflow to 0.0 on an alive node).
        mass = level_masses[tau] if tau != last else None
        for i, sid in enumerate(sids):
            if mass is not None and mass[i] <= 0.0:
                continue
            lid, stay, rel_deps = states[sid]
            if not rel_deps:
                row_nodes[i] = CTNode(tau, names[lid], stay, ())
            elif len(rel_deps) == 1:
                age, dlid = rel_deps[0]
                row_nodes[i] = CTNode(tau, names[lid], stay,
                                      ((tau - age, names[dlid]),))
            else:
                row_nodes[i] = CTNode(
                    tau, names[lid], stay,
                    tuple([(tau - age, names[dlid])
                           for age, dlid in rel_deps]))
        node_table.append(row_nodes)
    for tau in range(duration - 1):
        edge_offsets = level_offsets[tau]
        mass_row = level_masses[tau]
        parent_nodes = node_table[tau]
        child_nodes = node_table[tau + 1]
        child_survival = survivals[tau + 1]
        for i, parent in enumerate(parent_nodes):
            if parent is None:
                continue
            mass = mass_row[i]
            edges = parent.edges
            for e in range(edge_offsets[i], edge_offsets[i + 1]):
                child_index = all_children[e]
                # An edge survives with its (alive) parent iff the child
                # is alive — even when the conditioned weight underflows
                # to 0.0.
                if child_survival[child_index] > 0.0:
                    child = child_nodes[child_index]
                    edges[child] = weights[e] / mass
                    child.parents.append(parent)

    # ------------------------------------------------------------------
    # source conditioning (with the survival damping — DESIGN.md §3)
    # ------------------------------------------------------------------
    source_probabilities: Dict[CTNode, float] = {}
    survival_row = survivals[0]
    for i, node in enumerate(node_table[0]):
        if node is None:
            continue
        source_probabilities[node] = prior_probabilities[i] * survival_row[i]
    total = math.fsum(source_probabilities.values())
    if total <= 0.0:
        raise ZeroMassError(
            "the valid trajectories have zero total prior probability")
    for node in source_probabilities:
        source_probabilities[node] /= total

    stats.backward_seconds = time.perf_counter() - backward_started
    return CTGraph([tuple([node for node in row if node is not None])
                    for row in node_table],
                   source_probabilities, stats=stats)

