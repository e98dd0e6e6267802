"""Shared-pass query sessions over the flat (columnar) ct-graph form.

A :class:`QuerySession` is the one query engine: every stay, analytics,
pattern and meeting query — and the public functions of
:mod:`repro.queries` that wrap them — is answered here.  It wraps a
:class:`~repro.core.flatgraph.FlatCTGraph` — or any flat-shaped view,
such as the mmap-served :class:`~repro.store.format.MappedCTGraph` a
``.ctg`` file loads to, whose columns feed the same DPs zero-copy — and
computes the shared sweeps **once** as flat arrays:

* the forward (alpha) pass — per-level node-marginal arrays feeding
  :meth:`~QuerySession.location_marginal`,
  :meth:`~QuerySession.entropy_profile`,
  :meth:`~QuerySession.expected_visit_counts` and
  :meth:`~QuerySession.span_probability`;
* the backward max-product (best-suffix) pass feeding
  :meth:`~QuerySession.top_k_trajectories`.  (The *sum-product* betas of a
  conditioned ct-graph are identically 1 — every outgoing row is a
  distribution — so max-product is the backward sweep worth sharing.)

Each query is then index arithmetic over tuples instead of dict lookups
over node objects.  A node-web graph (``CTGraph``, ``JointGraph``) is
converted by its ``to_flat()`` once and caches its session
(:meth:`~repro.core.ctgraph.NodeWebGraph.query_session`).  The DPs visit
nodes in level order and edges in insertion order, skip ``mass == 0.0``
forward rows and filter emissions on ``> 0.0``; where presence of an
underflowed ``0.0`` entry affects a result dict's keys
(:meth:`first_visit_distribution`, :meth:`span_probability`,
:meth:`time_at_location_distribution`, the meeting DPs), the session keeps
the DP frontier in dicts keyed by node *index*, preserving insertion-order
semantics.  ``tests/test_queries_flat.py`` checks every query against
brute-force enumeration (:class:`~repro.core.naive.NaiveConditioner`) on
every flat route.

``most_likely_trajectory`` and ``top_k_trajectories`` break ties
deterministically (lexicographically smallest location sequence first;
top-k in discovery order).

**Backends** — the shared sweeps (alphas, max-product suffixes, the
marginal/entropy/expected-visit reductions and the visit/span restricted
flows) optionally run as whole-level ndarray kernels
(:mod:`repro.core.kernels`) over cached ``GraphViews``:
``QuerySession(graph, backend="numpy")`` opts in, ``"auto"`` engages them
above the calibrated width threshold, and ``"python"`` (the default)
always runs the loops above, which remain the parity oracle.  Kernel
sweeps are pinned to the oracle by the documented tolerance gate
(``docs/perf.md``): discrete structure — dict key sets, tie-breaks,
top-k order — stays exact; floats agree to 1e-12 relative.  The
trajectory-extraction and histogram DPs (:meth:`most_likely_trajectory`,
:meth:`top_k_trajectories`, :meth:`first_visit_distribution`,
:meth:`time_at_location_distribution`) always run in python — their
per-path bookkeeping does not vectorise and their tie-breaks must stay
bit-exact — but they consume the kernel suffix rows, which are exact.
"""

from __future__ import annotations

import heapq
import math
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core import kernels
from repro.core.ctgraph import NodeWebGraph
from repro.core.flatgraph import FlatCTGraph
from repro.core.lsequence import Trajectory
from repro.errors import QueryError
from repro.queries.pattern import OTHER, Pattern

if TYPE_CHECKING:
    from repro.queries.trajectory import TrajectoryQuery

__all__ = ["QuerySession", "QueryTarget"]

#: What every query accepts: a node-web graph (``CTGraph``,
#: ``JointGraph``), a flat graph or flat-shaped view (``FlatCTGraph``,
#: a mapped ``.ctg``), or a prebuilt session.
QueryTarget = Union[NodeWebGraph, FlatCTGraph, "QuerySession"]


class QuerySession:
    """Cached query evaluation over one flat ct-graph.

    Construct it from a :class:`FlatCTGraph` or a flat-shaped view (free)
    or from a node-web graph — a ``CTGraph`` or ``JointGraph`` — which is
    converted via its ``to_flat()``.  The session is cheap to build —
    sweeps run lazily on first use and are cached, so asking eight
    queries costs one forward pass, not eight.  Every answer is a fresh
    container the caller may edit.  Sessions are not thread-safe (caches
    are plain dicts).
    """

    def __init__(self, graph: Union[NodeWebGraph, FlatCTGraph],
                 backend: str = "python") -> None:
        if isinstance(graph, NodeWebGraph):
            graph = graph.to_flat()
        self.graph = graph
        edge_levels = graph.duration - 1
        #: The *resolved* sweep backend ("python" or "numpy"); "auto"
        #: resolves here from the graph's measured mean edges per level.
        self.backend = kernels.resolve_backend(
            backend,
            graph.num_edges / edge_levels if edge_levels else 0.0)
        self._views: Optional[kernels.GraphViews] = None
        self._alpha_rows: Optional[List[Sequence[float]]] = None
        self._suffixes: Optional[List[Sequence[float]]] = None
        self._marginals: Dict[int, Dict[str, float]] = {}
        self._entropies: Optional[List[float]] = None
        self._visit_counts: Optional[Dict[str, float]] = None
        self._map: Optional[Tuple[Trajectory, float]] = None
        self._names: Optional[FrozenSet[str]] = None
        self._level_sets: Optional[Tuple[Tuple[FrozenSet[int], ...],
                                         List[int]]] = None

    @classmethod
    def ensure(cls, graph: QueryTarget) -> "QuerySession":
        """``graph`` as a session: itself, the session a node-web graph
        caches (:meth:`~repro.core.ctgraph.NodeWebGraph.query_session`),
        or a new one over a flat graph."""
        if isinstance(graph, QuerySession):
            return graph
        if isinstance(graph, NodeWebGraph):
            return graph.query_session()
        return cls(graph)

    # ------------------------------------------------------------------
    # shared sweeps
    # ------------------------------------------------------------------
    @property
    def duration(self) -> int:
        return self.graph.duration

    def _level_views(self) -> kernels.GraphViews:
        """The session's cached ndarray views (numpy backend only)."""
        if self._views is None:
            self._views = kernels.GraphViews(self.graph)
        return self._views

    def _alpha_levels(self) -> List[Sequence[float]]:
        """The alpha rows in backend-native form (lists or ndarrays)."""
        if self._alpha_rows is None:
            if self.backend == "numpy":
                self._alpha_rows = kernels.alphas(self._level_views())
            else:
                graph = self.graph
                rows: List[List[float]] = [list(graph.source_probabilities)]
                for tau in range(graph.duration - 1):
                    offsets = graph.edge_offsets[tau]
                    children = graph.edge_children[tau]
                    probabilities = graph.edge_probabilities[tau]
                    row = rows[tau]
                    next_row = [0.0] * len(graph.locations[tau + 1])
                    for i in range(len(row)):
                        mass = row[i]
                        if mass == 0.0:
                            continue
                        for e in range(offsets[i], offsets[i + 1]):
                            next_row[children[e]] += mass * probabilities[e]
                    rows.append(next_row)
                self._alpha_rows = rows
        return self._alpha_rows

    def alphas(self) -> List[List[float]]:
        """The forward pass: P(trajectory passes through node), per level
        in the flat form's node order.

        Skips ``mass == 0.0`` nodes and accumulates in edge order.  Always
        a fresh list of plain float lists, whichever backend computed it.
        """
        rows = self._alpha_levels()
        if self.backend == "numpy":
            return [row.tolist() for row in rows]  # type: ignore[union-attr]
        return [list(row) for row in rows]

    def _best_suffixes(self) -> List[Sequence[float]]:
        """Max-product backward pass: each node's best completion value.

        Backend-native rows: plain lists on python, float64 arrays on
        numpy — *bit-exact* either way (max of the same products), which
        keeps :meth:`top_k_trajectories`'s expansion order identical.
        """
        if self._suffixes is None:
            if self.backend == "numpy":
                self._suffixes = kernels.best_suffixes(self._level_views())
            else:
                graph = self.graph
                rows: List[Sequence[float]] = \
                    [[] for _ in range(graph.duration)]
                rows[-1] = [1.0] * len(graph.locations[-1])
                for tau in range(graph.duration - 2, -1, -1):
                    offsets = graph.edge_offsets[tau]
                    children = graph.edge_children[tau]
                    probabilities = graph.edge_probabilities[tau]
                    next_row = rows[tau + 1]
                    row = [0.0] * len(graph.locations[tau])
                    for i in range(len(row)):
                        best = 0.0
                        for e in range(offsets[i], offsets[i + 1]):
                            value = probabilities[e] * next_row[children[e]]
                            if value > best:
                                best = value
                        row[i] = best
                    rows[tau] = row
                self._suffixes = rows
        return self._suffixes

    # ------------------------------------------------------------------
    # marginal family (all off the shared alphas)
    # ------------------------------------------------------------------
    def location_marginal(self, tau: int) -> Dict[str, float]:
        """The distribution of the object's location at timestep ``tau``."""
        return dict(self._marginal(tau))

    def _marginal(self, tau: int) -> Dict[str, float]:
        """:meth:`location_marginal`'s cached dict, shared — read only."""
        cached = self._marginals.get(tau)
        if cached is not None:
            return cached
        graph = self.graph
        if not 0 <= tau < graph.duration:
            raise QueryError(f"timestep {tau} outside [0, {graph.duration})")
        names = graph.location_names
        result: Dict[str, float] = {}
        if self.backend == "numpy":
            masses = kernels.masses_by_location(
                self._level_views(), tau, self._alpha_levels()[tau])
            for lid in range(len(names)):
                if masses[lid] > 0.0:
                    result[names[lid]] = float(masses[lid])
        else:
            lids = graph.locations[tau]
            row = self._alpha_levels()[tau]
            for i in range(len(lids)):
                mass = row[i]
                if mass > 0.0:
                    name = names[lids[i]]
                    result[name] = result.get(name, 0.0) + mass
        self._marginals[tau] = result
        return result

    def entropy_profile(self) -> List[float]:
        """Shannon entropy (bits) of the location marginal, per step."""
        if self._entropies is None:
            if self.backend == "numpy":
                views = self._level_views()
                rows = self._alpha_levels()
                self._entropies = [
                    kernels.entropy_bits(
                        kernels.masses_by_location(views, tau, rows[tau]))
                    for tau in range(self.duration)]
            else:
                self._entropies = [_entropy(self._marginal(tau))
                                   for tau in range(self.duration)]
        return list(self._entropies)

    def expected_visit_counts(self) -> Dict[str, float]:
        """Expected number of timesteps spent at each location."""
        if self._visit_counts is None:
            totals: Dict[str, float] = {}
            if self.backend == "numpy":
                views = self._level_views()
                rows = self._alpha_levels()
                names = self.graph.location_names
                total = kernels.masses_by_location(views, 0, rows[0])
                for tau in range(1, self.duration):
                    total = total + kernels.masses_by_location(
                        views, tau, rows[tau])
                for lid in range(len(names)):
                    if total[lid] > 0.0:
                        totals[names[lid]] = float(total[lid])
            else:
                for tau in range(self.duration):
                    for location, probability in \
                            self._marginal(tau).items():
                        totals[location] = (totals.get(location, 0.0)
                                            + probability)
            self._visit_counts = totals
        return dict(self._visit_counts)

    # ------------------------------------------------------------------
    # visit statistics
    # ------------------------------------------------------------------
    def visit_probability(self, location: str) -> float:
        """P(the object is at ``location`` at some timestep)."""
        graph = self.graph
        names = graph.location_names
        if self.backend == "numpy":
            try:
                lid = names.index(location)
            except ValueError:
                lid = -1
            total = kernels.avoidance_mass(self._level_views(), lid)
            return min(1.0, max(0.0, 1.0 - total))
        lids = graph.locations[0]
        # Avoidance flow never goes negative, so dropping the reference's
        # explicit 0.0-mass dict entries cannot change any float
        # (x + 0.0 == x and 0.0 * p == 0.0 for the values involved).
        row = [graph.source_probabilities[i]
               if (names[lids[i]] != location
                   and graph.source_probabilities[i] > 0.0) else 0.0
               for i in range(len(lids))]
        for tau in range(graph.duration - 1):
            offsets = graph.edge_offsets[tau]
            children = graph.edge_children[tau]
            probabilities = graph.edge_probabilities[tau]
            next_lids = graph.locations[tau + 1]
            next_row = [0.0] * len(next_lids)
            for i in range(len(row)):
                mass = row[i]
                if mass == 0.0:
                    continue
                for e in range(offsets[i], offsets[i + 1]):
                    child = children[e]
                    if names[next_lids[child]] == location:
                        continue
                    next_row[child] += mass * probabilities[e]
            row = next_row
        return min(1.0, max(0.0, 1.0 - sum(row)))

    def span_probability(self, location: str, start: int, end: int) -> float:
        """P(the object is at ``location`` throughout ``[start, end]``)."""
        graph = self.graph
        if not 0 <= start <= end < graph.duration:
            raise QueryError(
                f"window [{start}, {end}] outside the graph's [0, "
                f"{graph.duration})")
        names = graph.location_names
        if self.backend == "numpy":
            try:
                lid = names.index(location)
            except ValueError:
                return 0.0
            mass = kernels.span_mass(self._level_views(), lid, start, end,
                                     self._alpha_levels()[start])
            return min(1.0, mass)
        alphas = self._alpha_levels()[start]
        lids = graph.locations[start]
        inside: Dict[int, float] = {}
        for i in range(len(lids)):
            if names[lids[i]] == location:
                mass = alphas[i]
                if mass > 0.0:
                    inside[i] = mass
        for tau in range(start, end):
            offsets = graph.edge_offsets[tau]
            children = graph.edge_children[tau]
            probabilities = graph.edge_probabilities[tau]
            next_lids = graph.locations[tau + 1]
            step: Dict[int, float] = {}
            for i, mass in inside.items():
                for e in range(offsets[i], offsets[i + 1]):
                    child = children[e]
                    if names[next_lids[child]] == location:
                        step[child] = (step.get(child, 0.0)
                                       + mass * probabilities[e])
            inside = step
            if not inside:
                return 0.0
        return min(1.0, sum(inside.values()))

    def time_at_location_distribution(self,
                                      location: str) -> Dict[int, float]:
        """The distribution of the *total* time spent at ``location``."""
        graph = self.graph
        names = graph.location_names
        lids = graph.locations[0]
        histograms: Dict[int, Dict[int, float]] = {}
        for i in range(len(lids)):
            mass = graph.source_probabilities[i]
            if mass <= 0.0:
                continue
            count = 1 if names[lids[i]] == location else 0
            histograms[i] = {count: mass}
        for tau in range(graph.duration - 1):
            offsets = graph.edge_offsets[tau]
            children = graph.edge_children[tau]
            probabilities = graph.edge_probabilities[tau]
            next_lids = graph.locations[tau + 1]
            step: Dict[int, Dict[int, float]] = {}
            for i in range(len(graph.locations[tau])):
                histogram = histograms.get(i)
                if not histogram:
                    continue
                for e in range(offsets[i], offsets[i + 1]):
                    child = children[e]
                    probability = probabilities[e]
                    bump = 1 if names[next_lids[child]] == location else 0
                    target = step.setdefault(child, {})
                    for count, mass in histogram.items():
                        key = count + bump
                        target[key] = (target.get(key, 0.0)
                                       + mass * probability)
            histograms = step
        result: Dict[int, float] = {}
        for i in range(len(graph.locations[-1])):
            for count, mass in histograms.get(i, {}).items():
                result[count] = result.get(count, 0.0) + mass
        return result

    def first_visit_distribution(self, location: str) -> Dict[int, float]:
        """P(first visit to ``location`` happens at timestep ``tau``)."""
        graph = self.graph
        names = graph.location_names
        lids = graph.locations[0]
        first: Dict[int, float] = {}
        pending: Dict[int, float] = {}
        for i in range(len(lids)):
            mass = graph.source_probabilities[i]
            if mass <= 0.0:
                continue
            if names[lids[i]] == location:
                first[0] = first.get(0, 0.0) + mass
            else:
                pending[i] = mass
        for tau in range(graph.duration - 1):
            offsets = graph.edge_offsets[tau]
            children = graph.edge_children[tau]
            probabilities = graph.edge_probabilities[tau]
            next_lids = graph.locations[tau + 1]
            step: Dict[int, float] = {}
            for i in range(len(graph.locations[tau])):
                mass = pending.get(i)
                if mass is None:
                    continue
                for e in range(offsets[i], offsets[i + 1]):
                    child = children[e]
                    flow = mass * probabilities[e]
                    if names[next_lids[child]] == location:
                        first[tau + 1] = first.get(tau + 1, 0.0) + flow
                    else:
                        step[child] = step.get(child, 0.0) + flow
            pending = step
        return first

    # ------------------------------------------------------------------
    # trajectory extraction
    # ------------------------------------------------------------------
    def most_likely_trajectory(self) -> Tuple[Trajectory, float]:
        """The MAP trajectory (Viterbi over the levels).

        Ties are broken deterministically: among equal-probability MAP
        paths the lexicographically smallest location sequence wins,
        independent of node order.
        """
        if self._map is not None:
            return self._map
        graph = self.graph
        names = graph.location_names
        # Lexicographic keys are packed into small ints: with ``name_rank``
        # a dense rank order-isomorphic to the name strings and per-level
        # prefix ranks dense in [0, level size), the tuple key
        # ``(prefix_rank, name)`` maps to ``prefix_rank * L + name_rank``
        # order-preservingly — int compares instead of tuple/str compares.
        width = len(names)
        name_rank = [0] * width
        for rank, lid in enumerate(sorted(range(width),
                                          key=names.__getitem__)):
            name_rank[lid] = rank
        lids = graph.locations[0]
        count = len(lids)
        value = [0.0] * count
        parent = [-1] * count
        present = [False] * count
        keys = [-1] * count
        for i in range(count):
            probability = graph.source_probabilities[i]
            if probability > 0.0:
                value[i] = probability
                present[i] = True
                keys[i] = name_rank[lids[i]]
        ranks = _lex_ranks(present, keys)
        values: List[List[float]] = [value]
        parents: List[List[int]] = [parent]
        presents: List[List[bool]] = [present]
        for tau in range(graph.duration - 1):
            offsets = graph.edge_offsets[tau]
            children = graph.edge_children[tau]
            probabilities = graph.edge_probabilities[tau]
            next_lids = graph.locations[tau + 1]
            next_count = len(next_lids)
            value = [0.0] * next_count
            parent = [-1] * next_count
            next_present = [False] * next_count
            keys = [-1] * next_count
            row = values[tau]
            row_present = presents[tau]
            for i in range(len(row)):
                if not row_present[i]:
                    continue
                mass = row[i]
                base = ranks[i] * width
                for e in range(offsets[i], offsets[i + 1]):
                    child = children[e]
                    candidate = mass * probabilities[e]
                    key = base + name_rank[next_lids[child]]
                    if (not next_present[child]
                            or candidate > value[child]
                            or (candidate == value[child]
                                and key < keys[child])):
                        value[child] = candidate
                        parent[child] = i
                        next_present[child] = True
                        keys[child] = key
            ranks = _lex_ranks(next_present, keys)
            values.append(value)
            parents.append(parent)
            presents.append(next_present)
        terminal = -1
        last_values = values[-1]
        last_present = presents[-1]
        for i in range(len(last_values)):
            if not last_present[i]:
                continue
            if (terminal < 0 or last_values[i] > last_values[terminal]
                    or (last_values[i] == last_values[terminal]
                        and ranks[i] < ranks[terminal])):
                terminal = i
        if terminal < 0:
            raise QueryError("graph has no positive-probability path")
        steps: List[str] = []
        index = terminal
        for tau in range(graph.duration - 1, -1, -1):
            steps.append(names[graph.locations[tau][index]])
            index = parents[tau][index]
        steps.reverse()
        self._map = (tuple(steps), last_values[terminal])
        return self._map

    def top_k_trajectories(self, k: int) -> List[Tuple[Trajectory, float]]:
        """The ``min(k, num_valid_trajectories())`` most probable valid
        trajectories, most probable first.

        Best-first search over path prefixes, guided by the exact
        probability-to-go upper bound of the max-product suffix pass, so
        only prefixes that can still reach the answer set are expanded;
        equal bounds pop in insertion order.  Each node is expanded at
        most ``k`` times: its ``i``-th pop carries its ``i``-th best
        prefix, so once ``k`` prefixes have reached a node every later
        one is dominated, which bounds the heap at ``O(k * edges)``
        entries.  Partial trajectories live on the heap as cons chains
        ``(name, parent_chain)`` rather than tuples, so a push costs O(1)
        instead of O(duration); the heap never compares chains
        (``counter`` is unique), and only the ``min(k, ...)`` emitted
        results pay the unwind.  The emitted results are stable-sorted by
        probability before returning, so the list is descending even where
        a rounded bound popped two paths one ulp out of order; exact ties
        keep discovery order.
        """
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        graph = self.graph
        names = graph.location_names
        suffixes = self._best_suffixes()
        last = graph.duration - 1
        all_offsets = graph.edge_offsets
        all_children = graph.edge_children
        all_probabilities = graph.edge_probabilities
        all_locations = graph.locations
        push = heapq.heappush
        pop = heapq.heappop
        # Node identity ``tau * width + index`` packed into one int — used
        # both as the heap entry's node field and the pop-cap key.
        width = max(len(level) for level in all_locations)
        # Entries are (-bound, counter, node_key, chain, mass).
        heap: List[Tuple[float, int, int, tuple, float]] = []
        counter = 0
        lids = all_locations[0]
        suffix_row = suffixes[0]
        for i in range(len(lids)):
            mass = graph.source_probabilities[i]
            if mass <= 0.0:
                continue
            bound = mass * suffix_row[i]
            push(heap, (-bound, counter, i, (names[lids[i]], None), mass))
            counter += 1
        results: List[Tuple[Trajectory, float]] = []
        pops: Dict[int, int] = {}
        pops_get = pops.get
        remaining = k
        while heap and remaining:
            _, _, node_key, chain, mass = pop(heap)
            popped = pops_get(node_key, 0)
            if popped >= k:
                continue
            pops[node_key] = popped + 1
            tau, index = divmod(node_key, width)
            if tau == last:
                reversed_path: List[str] = []
                link: Optional[tuple] = chain
                while link is not None:
                    reversed_path.append(link[0])
                    link = link[1]
                results.append((tuple(reversed(reversed_path)), mass))
                remaining -= 1
                continue
            offsets = all_offsets[tau]
            children = all_children[tau]
            probabilities = all_probabilities[tau]
            next_lids = all_locations[tau + 1]
            next_suffixes = suffixes[tau + 1]
            next_base = (tau + 1) * width
            for e in range(offsets[index], offsets[index + 1]):
                child = children[e]
                child_mass = mass * probabilities[e]
                bound = child_mass * next_suffixes[child]
                if bound <= 0.0:
                    continue
                push(heap, (-bound, counter, next_base + child,
                            (names[next_lids[child]], chain), child_mass))
                counter += 1
        results.sort(key=itemgetter(1), reverse=True)
        return results

    # ------------------------------------------------------------------
    # pattern matching
    # ------------------------------------------------------------------
    def match_probability(self, pattern: Union[Pattern, str,
                                               TrajectoryQuery]) -> float:
        """P(the cleaned trajectory matches the pattern).

        The pattern's DFA runs in lock-step with a forward pass over the
        levels: the DP state is a probability per ``(node, DFA state)``
        pair, and determinism of the DFA counts each trajectory through
        exactly one run.  What the graph's location sets can settle is
        settled first, cheapest first:

        1. *The name table.*  Every named condition needs at least one
           visit, so a pattern naming a location missing from
           ``graph.location_names`` answers ``0.0`` — one set test, and
           a string pattern is not even compiled.
        2. *The level pass.*  :meth:`PatternDFA.colive
           <repro.queries.pattern.PatternDFA.colive>` over the graph's
           per-level location sets (built once per session, O(nodes))
           gives, per level, the *co-live* states: those from which
           reading one location of each later level's set can still
           reach an accepting state.  When the start state reaches none,
           the answer is ``0.0`` without a sweep.
        3. *The sweep* stores a pair at a level only if its state is
           co-live there, and answers ``0.0`` as soon as a level's
           frontier is empty.

        Exact, bit for bit: a state that is not co-live at a level steps,
        on every location of the next level, only to states that are not
        co-live there.  So a pruned pair contributes only to pruned
        pairs, every kept pair receives the same terms in the same order
        as in the unpruned DP, and the pairs left at the last level are
        exactly its accepting ones, in the same order.
        """
        if isinstance(pattern, str):
            pattern = Pattern.parse(pattern)
        elif not isinstance(pattern, Pattern):
            pattern = pattern.pattern  # a TrajectoryQuery
        graph = self.graph
        if self._names is None:
            self._names = frozenset(graph.location_names)
        if not pattern.named_locations <= self._names:
            return 0.0
        dfa = pattern.dfa()
        alphabet = dfa.alphabet
        symbols = [name if name in alphabet else OTHER
                   for name in graph.location_names]
        level_sets, set_of_level = self._level_location_sets()
        symbol_sets = [frozenset([symbols[lid] for lid in lids])
                       for lids in level_sets]
        colive = dfa.colive([symbol_sets[k] for k in set_of_level])
        if not colive[0] >> dfa.start & 1:
            return 0.0
        # Per co-live bitset and DFA state, the successor per interned
        # location id, -1 where it is not co-live: a row is filled when a
        # frontier first holds its state.  ``(node index, dfa state)``
        # frontier keys are packed into one int (``index * num_states +
        # state``) — a bijection, so insertion order and float
        # accumulation match a tuple-keyed frontier.
        transitions = dfa.transitions
        num_states = len(transitions)
        tables: Dict[int, List[Optional[List[int]]]] = {}
        lids = graph.locations[0]
        start_moves = _co_live_moves(transitions[dfa.start], symbols,
                                     colive[1])
        forward: Dict[int, float] = {}
        for i in range(len(lids)):
            mass = graph.source_probabilities[i]
            state = start_moves[lids[i]]
            if mass <= 0.0 or state < 0:
                continue
            key = i * num_states + state
            forward[key] = forward.get(key, 0.0) + mass

        for tau in range(graph.duration - 1):
            if not forward:
                return 0.0
            bits = colive[tau + 2]
            table = tables.get(bits)
            if table is None:
                table = tables[bits] = [None] * num_states
            offsets = graph.edge_offsets[tau]
            children = graph.edge_children[tau]
            probabilities = graph.edge_probabilities[tau]
            next_lids = graph.locations[tau + 1]
            step: Dict[int, float] = {}
            step_get = step.get
            for key, mass in forward.items():
                i, state = divmod(key, num_states)
                move = table[state]
                if move is None:
                    move = table[state] = _co_live_moves(
                        transitions[state], symbols, bits)
                for e in range(offsets[i], offsets[i + 1]):
                    child = children[e]
                    target = move[next_lids[child]]
                    if target < 0:
                        continue
                    next_key = child * num_states + target
                    step[next_key] = (step_get(next_key, 0.0)
                                      + mass * probabilities[e])
            forward = step
        return sum(forward.values(), 0.0)

    def _level_location_sets(self) -> Tuple[Tuple[FrozenSet[int], ...],
                                            List[int]]:
        """The graph's distinct per-level location-id sets, and per level
        the index of its set; built on first use, O(nodes)."""
        if self._level_sets is None:
            distinct: Dict[FrozenSet[int], int] = {}
            set_of_level = [distinct.setdefault(frozenset(level),
                                                len(distinct))
                            for level in self.graph.locations]
            self._level_sets = (tuple(distinct), set_of_level)
        return self._level_sets

    def __repr__(self) -> str:
        return f"QuerySession({self.graph!r})"


def _co_live_moves(row: Dict[str, int], symbols: List[str],
                   bits: int) -> List[int]:
    """A DFA state's successor per location id (``symbols[lid]``), or -1
    where the successor's bit is clear in ``bits``."""
    moves = []
    for symbol in symbols:
        target = row[symbol]
        moves.append(target if bits >> target & 1 else -1)
    return moves


def _entropy(distribution: Dict[str, float]) -> float:
    """Shannon entropy (bits) of a distribution."""
    return -sum(p * math.log2(p) for p in distribution.values() if p > 0.0)


def _lex_ranks(present: List[bool], keys: List[object]) -> List[int]:
    """Dense lexicographic ranks of the present nodes' prefix keys.

    Rank order ≡ lexicographic order of the full best prefixes, because
    every level's keys are (parent rank, location) pairs and all prefixes
    at a level share a length.
    """
    order = {key: rank for rank, key in enumerate(
        sorted({keys[i] for i in range(len(keys)) if present[i]}))}  # type: ignore[type-var]
    return [order[keys[i]] if present[i] else -1
            for i in range(len(keys))]
