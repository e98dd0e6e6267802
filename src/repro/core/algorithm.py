"""Algorithm 1: building the conditioned-trajectory graph (Section 5).

The construction has two phases.

**Forward** — level by level, every node of timestep ``tau`` is expanded
with its successors among the prior-compatible locations of ``tau + 1``
(Definition 3 permitting).  Each created edge carries the a-priori
probability of its destination's ``(timestep, location)`` pair.  Prior mass
of next-step locations a node cannot legally reach is simply not covered by
its outgoing edges — it is the paper's initial ``loss``.

**Backward** — levels are swept from the last timestep down to the sources.
For every node ``n`` the sweep computes its *survival*::

    S(n) = sum over surviving edges (n, n') of  p_edge * S(n')

(targets have ``S = 1``).  ``S(n)`` is exactly ``1 - loss(n)`` of the
paper's queue-driven formulation: the fraction of the prior mass of ``n``'s
continuations that yields valid trajectories.  Nodes with ``S = 0`` are
deleted (they are the paper's ``loss = 1`` leaves and their ancestors-only-
of-dead-nodes); every surviving edge is conditioned to
``p_edge * S(n') / S(n)``, and finally source probabilities are conditioned
to ``p_prior(n) * S(n) / sum over sources``.

Two deliberate deviations from the printed pseudo-code, both pinned by the
property tests against the naive enumerator (DESIGN.md §3):

* the printed line 31 normalises ``p_N`` without first damping each source
  by its own survival ``1 - loss``; the damping is required for path
  probabilities to equal the conditioned trajectory probabilities (the
  paper's running example cannot tell the difference because a single
  source survives there);
* the backward pass propagates *relative* survivals, rescaled per level so
  that each level's maximum is 1, instead of the paper's absolute losses.
  The two are mathematically identical (conditioning only uses survival
  ratios within a node), but absolute survivals are products over the
  remaining duration and underflow float64 around a few hundred timesteps,
  silently turning every node into a ``loss = 1`` casualty.  The rescaled
  sweep is robust at any duration.

Complexity: with ``S`` the number of node states per timestep and ``L`` the
per-timestep branching of the l-sequence, the forward phase performs
``O(duration * S * L)`` state expansions and the backward sweep touches
every edge exactly once — polynomial in the trajectory length, as the
paper claims.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.core.constraints import ConstraintSet
from repro.core.ctgraph import CTGraph, CTNode
from repro.core.flatgraph import FlatCTGraph
from repro.core.lsequence import LSequence, ReadingSequence
from repro.core.nodes import (
    DepartureFilter,
    NodeState,
    _unchecked_successor,
    source_states,
)
from repro.errors import ReadingSequenceError, ZeroMassError

__all__ = ["CleaningOptions", "CleaningStats", "build_ct_graph", "clean"]

#: Policies for stays cut short by the end of the monitoring window.
TRUNCATED_STAY_POLICIES = ("lenient", "strict")

#: Pre-flight static-analysis modes (see ``repro.analysis``).
PRECHECK_MODES = ("off", "warn", "error")

#: The two bit-identical Algorithm 1 implementations (see
#: ``docs/perf.md``): the compact engine builds, the reference builder is
#: the test oracle.
ENGINES = ("reference", "compact")

#: What :func:`build_ct_graph` materialises: ``CTNode`` objects
#: (``"nodes"``; ``"auto"`` currently resolves to the same), the
#: columnar :class:`~repro.core.flatgraph.FlatCTGraph` (``"flat"``), or
#: a ``.ctg`` file written straight from the flat arrays (``"store"``,
#: which requires ``output=`` and returns a zero-copy
#: :class:`~repro.store.format.MappedCTGraph` view of the file).
MATERIALIZE_MODES = ("auto", "nodes", "flat", "store")

#: The accepted ``backend`` values.  Batch builds and query sessions run
#: the python sweep for every value; streams read it (``"python"``
#: advances through the oracle recursion, ``"auto"`` and ``"numpy"``
#: through the compact engine's memoised rows).
BACKENDS = ("auto", "python", "numpy")


@dataclass(frozen=True)
class CleaningOptions:
    """Tunable semantics of the cleaning run.

    ``truncated_stay_policy`` — what to do with a latency-constrained stay
    that reaches the final timestep before meeting its bound: ``"lenient"``
    (default, the printed algorithm's behaviour) keeps it, ``"strict"``
    (Definition 2 read literally) discards it.

    ``precheck`` — whether to run the static constraint/map analyzer
    (``repro.analysis``) before the forward pass: ``"off"`` (default)
    skips it, ``"warn"`` emits a :class:`UserWarning` per ERROR diagnostic,
    ``"error"`` additionally refuses inputs whose pre-check *proves* the
    valid prior mass is zero (rule C005) by raising
    :class:`~repro.errors.ZeroMassError` up front — same outcome as
    running Algorithm 1, minus the cost of the doomed run.

    ``engine`` — which Algorithm 1 implementation runs: ``"compact"``
    (default: the interned engine of :mod:`repro.core.engine` — memoised
    transition rows, columnar backward sweep) or ``"reference"`` (the
    direct builder above, kept as the test oracle).  The engines are
    bit-exact with each other — same graph, same probabilities, same
    stats counters — so the choice never changes a result; see
    ``docs/perf.md``.

    ``materialize`` — the shape of the returned graph: ``"nodes"``
    builds the :class:`~repro.core.ctgraph.CTGraph` object web (the
    historical behaviour), ``"flat"`` returns the columnar
    :class:`~repro.core.flatgraph.FlatCTGraph` instead — the compact
    engine then never materialises ``CTNode`` objects at all, which is
    both faster and smaller when the caller only runs queries (through
    :class:`repro.queries.session.QuerySession`).  ``"store"`` goes one
    step further: the flat columns are written straight into the
    ``output=`` path as a ``rfid-ctg/ctg@1`` binary file and the call
    returns a zero-copy
    :class:`~repro.store.format.MappedCTGraph` view of that file.
    ``"auto"`` (default) behaves like ``"nodes"``; it resolves to
    ``"store"`` when ``output=`` is given, and the batch runtime
    resolves it to ``"flat"`` when a
    :class:`~repro.runtime.plan.QueryPlan` discards graphs.  All shapes
    carry the same information for queries and are bit-identical with
    each other (``CTGraph.to_flat``, ``MappedCTGraph.materialize``); see
    ``docs/perf.md`` and ``docs/store.md``.

    ``output`` — the ``.ctg`` path ``materialize="store"`` writes;
    setting it with ``materialize="auto"`` selects ``"store"``
    implicitly, and any other explicit materialisation alongside
    ``output`` is a configuration error.

    ``backend`` — one of :data:`BACKENDS`.  Builds run the same python
    sweep for every value, so the choice never changes a graph.  Only
    streams read it: ``"python"`` advances a
    :class:`~repro.streaming.StreamingCleaner` through the oracle
    recursion, ``"auto"`` and ``"numpy"`` through the compact engine's
    memoised rows, with bit-identical estimates.
    """

    truncated_stay_policy: str = "lenient"
    precheck: str = "off"
    engine: str = "compact"
    materialize: str = "auto"
    backend: str = "python"
    output: Optional[str] = None

    def __post_init__(self) -> None:
        if self.truncated_stay_policy not in TRUNCATED_STAY_POLICIES:
            raise ReadingSequenceError(
                f"unknown truncated_stay_policy "
                f"{self.truncated_stay_policy!r}; "
                f"expected one of {TRUNCATED_STAY_POLICIES}")
        if self.precheck not in PRECHECK_MODES:
            raise ReadingSequenceError(
                f"unknown precheck mode {self.precheck!r}; "
                f"expected one of {PRECHECK_MODES}")
        if self.engine not in ENGINES:
            raise ReadingSequenceError(
                f"unknown engine {self.engine!r}; "
                f"expected one of {ENGINES}")
        if self.materialize not in MATERIALIZE_MODES:
            raise ReadingSequenceError(
                f"unknown materialize mode {self.materialize!r}; "
                f"expected one of {MATERIALIZE_MODES}")
        if self.backend not in BACKENDS:
            raise ReadingSequenceError(
                f"unknown backend {self.backend!r}; "
                f"expected one of {BACKENDS}")
        if self.output is not None and self.materialize == "auto":
            object.__setattr__(self, "materialize", "store")
        if self.materialize == "store" and self.output is None:
            raise ReadingSequenceError(
                "materialize='store' writes a .ctg file and needs "
                "output=... (the path to write)")
        if self.output is not None and self.materialize != "store":
            raise ReadingSequenceError(
                f"output= writes a .ctg file, which requires "
                f"materialize='store' (or 'auto'), "
                f"not {self.materialize!r}")

    @property
    def strict_truncation(self) -> bool:
        return self.truncated_stay_policy == "strict"

    @property
    def flat_materialize(self) -> bool:
        return self.materialize == "flat"

    @property
    def columnar_materialize(self) -> bool:
        """Flat-array materialisation — in memory (``"flat"``) or written
        straight to a ``.ctg`` file (``"store"``).  This is the knob the
        engines route on: both modes share the columnar build and skip
        ``CTNode`` construction entirely."""
        return self.materialize in ("flat", "store")

    @property
    def store_materialize(self) -> bool:
        return self.materialize == "store"


@dataclass
class CleaningStats:
    """Counters filled in by :func:`build_ct_graph` (attached to the graph)."""

    nodes_created: int = 0
    nodes_removed: int = 0
    edges_created: int = 0
    edges_removed: int = 0
    #: Wall-clock seconds of the forward expansion and of the backward
    #: survival sweep (conditioning and materialisation included), filled
    #: by both engines so wins are attributable per phase.  A store build
    #: (``materialize="store"``) stamps ``backward_seconds`` before it
    #: writes the ``.ctg``, because the file's stats block carries it, so
    #: the write is in neither field.  Excluded from equality — two
    #: identical cleanings never time identically.
    forward_seconds: float = field(default=0.0, compare=False)
    backward_seconds: float = field(default=0.0, compare=False)
    #: Wall-clock seconds of the backward survival sweep *proper* (edge
    #: weights, per-node masses, rescaled survivals — everything before
    #: materialisation starts).  Filled by the compact engine only.
    #: ``backward_seconds`` still covers sweep plus materialisation.
    sweep_seconds: float = field(default=0.0, compare=False)

    @property
    def nodes_kept(self) -> int:
        return self.nodes_created - self.nodes_removed

    @property
    def edges_kept(self) -> int:
        return self.edges_created - self.edges_removed


def build_ct_graph(lsequence: LSequence, constraints: ConstraintSet,
                   options: CleaningOptions = CleaningOptions(), *,
                   plan=None) -> Union[CTGraph, FlatCTGraph]:
    """Run Algorithm 1: the ct-graph of ``lsequence`` under ``constraints``.

    Raises :class:`InconsistentReadingsError` when no trajectory compatible
    with the l-sequence satisfies the constraints (conditioning undefined).
    The returned graph carries its :class:`CleaningStats` as ``graph.stats``.
    With ``CleaningOptions(materialize="flat")`` the result is the
    columnar :class:`~repro.core.flatgraph.FlatCTGraph` instead of the
    ``CTNode`` web — bit-identical to ``.to_flat()`` of the node graph.
    With ``materialize="store"`` (or ``output=...``) the columns are
    written to a ``.ctg`` file instead and the returned graph is a
    zero-copy :class:`~repro.store.format.MappedCTGraph` view of it.

    ``plan`` is an optional
    :class:`repro.runtime.SharedCleaningPlan` (or any object with the same
    ``constraints``/``engine_cache``/``precheck`` surface) holding
    precomputation shared across the many objects of a batch: the compact
    engine's transition cache and a run-once analyzer pre-check.  Passing
    a plan never changes the result — only where the bookkeeping lives.
    The plan must be built for this very constraint set.
    """
    if options.engine == "compact":
        # The compact engine owns the whole contract (plan validation,
        # pre-check, stats); imported lazily to keep the module DAG simple.
        from repro.core.engine import build_ct_graph_compact

        return build_ct_graph_compact(lsequence, constraints, options,
                                      plan=plan)
    if plan is not None:
        if plan.constraints != constraints:
            raise ReadingSequenceError(
                "the shared cleaning plan was built for a different "
                "constraint set")
        plan.precheck(lsequence, options)
    elif options.precheck != "off":
        _run_precheck(lsequence, constraints, options)

    sources = {state: lsequence.probability(0, location)
               for location, state
               in source_states(lsequence.support(0), constraints).items()}
    rows = [lsequence.candidates(tau) for tau in range(lsequence.duration)]
    return _condition_levels(sources, rows, constraints, options,
                             lsequence=lsequence)


def _condition_levels(sources: Mapping[NodeState, float],
                      rows: Sequence[Mapping[str, float]],
                      constraints: ConstraintSet, options: CleaningOptions,
                      *, offset: int = 0,
                      lsequence: Optional[LSequence] = None
                      ) -> Union[CTGraph, FlatCTGraph]:
    """The reference builder: Algorithm 1 from given level-0 node states.

    ``sources`` maps each level-0 node state to its prior mass and
    ``rows[i]`` is level ``i``'s candidate row (``rows[0]`` is the row
    the sources came from).  The levels are absolute timesteps
    ``offset .. offset + len(rows) - 1``, relabelled from 0 in the
    returned graph, with ``TL`` departure times rebased by ``-offset``.
    :func:`build_ct_graph` passes the timestep-0 source states and the
    whole ``lsequence``, whose supports drive the
    :class:`~repro.core.nodes.DepartureFilter`; a streaming window passes
    its entry frontier at ``offset = base``, and no l-sequence — the
    filter needs the future support.
    """
    stats = CleaningStats()
    forward_started = time.perf_counter()
    departure_filter = (DepartureFilter(lsequence, constraints)
                        if lsequence is not None and constraints.tt_sources
                        else None)
    duration = len(rows)
    last = duration - 1

    def label(tau: int, state: NodeState) -> CTNode:
        if offset:
            state = (state[0], state[1],
                     tuple((departed_at - offset, location)
                           for departed_at, location in state[2]))
        return CTNode(tau, *state)

    # ------------------------------------------------------------------
    # initialisation: the given level-0 states
    # ------------------------------------------------------------------
    levels: List[Dict[NodeState, CTNode]] = [{} for _ in range(duration)]
    prior_source_probability: Dict[CTNode, float] = {}
    for state, mass in sources.items():
        if options.strict_truncation and last == 0 and state[1] is not None:
            continue
        node = label(0, state)
        levels[0][state] = node
        prior_source_probability[node] = mass
        stats.nodes_created += 1
    if not levels[0]:
        raise ZeroMassError(
            f"no source location satisfies the constraints at timestep "
            f"{offset}")

    # ------------------------------------------------------------------
    # forward phase
    # ------------------------------------------------------------------
    for tau in range(duration - 1):
        frontier = levels[tau]
        next_level = levels[tau + 1]
        candidates = rows[tau + 1]
        filter_binding = options.strict_truncation and tau + 1 == last
        # Rule 2 (DU) is hoisted: the reachable candidates are shared by
        # every node at the same location of this level.
        reachable: Dict[str, list] = {}
        for state, node in frontier.items():
            location = node.location
            allowed = reachable.get(location)
            if allowed is None:
                allowed = [(destination, probability)
                           for destination, probability in candidates.items()
                           if not constraints.forbids_step(location,
                                                           destination)]
                reachable[location] = allowed
            for destination, probability in allowed:
                successor = _unchecked_successor(offset + tau, state,
                                                 destination, constraints,
                                                 departure_filter)
                if successor is None:
                    continue
                if filter_binding and successor[1] is not None:
                    continue
                child = next_level.get(successor)
                if child is None:
                    child = label(tau + 1, successor)
                    next_level[successor] = child
                    stats.nodes_created += 1
                node.edges[child] = probability
                child.parents.append(node)
                stats.edges_created += 1
        if not next_level:
            raise ZeroMassError(
                f"no trajectory can legally continue past timestep "
                f"{offset + tau}")

    # ------------------------------------------------------------------
    # backward phase: survival sweep with per-level rescaling
    # ------------------------------------------------------------------
    backward_started = time.perf_counter()
    stats.forward_seconds = backward_started - forward_started
    survival: Dict[CTNode, float] = {node: 1.0 for node in levels[last].values()}
    for tau in range(last - 1, -1, -1):
        level = levels[tau]
        dead: List[NodeState] = []
        level_max = 0.0
        for state, node in level.items():
            mass = 0.0
            surviving_edges: Dict[CTNode, float] = {}
            for child, probability in node.edges.items():
                child_survival = survival.get(child, 0.0)
                if child_survival > 0.0:
                    weight = probability * child_survival
                    surviving_edges[child] = weight
                    mass += weight
            if mass <= 0.0:
                dead.append(state)
                stats.edges_removed += len(node.edges)
                node.edges.clear()
                continue
            # Condition: each edge's probability becomes its share of the
            # surviving mass (this is p_edge * S(child) / S(node)).
            stats.edges_removed += len(node.edges) - len(surviving_edges)
            node.edges = {child: weight / mass
                          for child, weight in surviving_edges.items()}
            survival[node] = mass
            if mass > level_max:
                level_max = mass
        for state in dead:
            node = level.pop(state)
            stats.nodes_removed += 1
        if not level:
            raise ZeroMassError(
                "no trajectory compatible with the readings satisfies "
                "the constraints")
        # Rescale so the level's largest survival is 1 — conditioning only
        # ever uses survival ratios, and this keeps float64 from
        # underflowing on long sequences.
        if level_max > 0.0:
            for node in level.values():
                survival[node] /= level_max

    # Drop now-unreachable bookkeeping: parents entries of removed nodes.
    for tau in range(1, duration):
        for node in levels[tau].values():
            node.parents = [parent for parent in node.parents if parent.edges]
    # A level-(tau+1) node none of whose parents survived cannot happen:
    # an alive child forces every parent's survival to be positive through
    # the connecting edge.  The graph validation in the tests asserts this.

    # ------------------------------------------------------------------
    # source conditioning (with the survival damping — DESIGN.md §3)
    # ------------------------------------------------------------------
    source_probabilities: Dict[CTNode, float] = {}
    for node in levels[0].values():
        source_probabilities[node] = (
            prior_source_probability[node] * survival.get(node, 1.0))
    total = math.fsum(source_probabilities.values())
    if total <= 0.0:
        raise ZeroMassError(
            "the valid trajectories have zero total prior probability")
    for node in source_probabilities:
        source_probabilities[node] /= total

    stats.backward_seconds = time.perf_counter() - backward_started
    graph = CTGraph([tuple(level.values()) for level in levels],
                    source_probabilities, stats=stats)
    if options.columnar_materialize:
        # The reference builder always materialises nodes; the flat form
        # is a conversion here (the compact engine emits it natively).
        flat = graph.to_flat()
        if options.store_materialize:
            from repro.store.format import write_mapped_ctg

            return write_mapped_ctg(
                options.output,
                location_names=flat.location_names,
                locations=flat.locations,
                stays=flat.stays,
                edge_offsets=flat.edge_offsets,
                edge_children=flat.edge_children,
                edge_probabilities=flat.edge_probabilities,
                source_probabilities=flat.source_probabilities,
                stats=flat.stats)
        return flat
    return graph


def _run_precheck(lsequence: LSequence, constraints: ConstraintSet,
                  options: CleaningOptions) -> None:
    """The opt-in pre-flight hook: static analysis before the forward pass.

    Imported lazily so the core algorithm has no hard dependency on the
    analyzer.  ``"warn"`` surfaces every ERROR diagnostic as a
    :class:`UserWarning`; ``"error"`` additionally raises
    :class:`~repro.errors.ZeroMassError` when rule C005 *proves* the valid
    prior mass is zero (other ERROR diagnostics — e.g. a C001
    contradiction on a location the readings never touch — do not imply
    zero mass, so they only ever warn; the pre-check never rejects an
    input Algorithm 1 could clean).
    """
    import warnings

    from repro.analysis import ZERO_MASS_RULE, analyze

    report = analyze(constraints, readings=lsequence,
                     strict_truncation=options.strict_truncation)
    for diagnostic in report.errors:
        if options.precheck == "error" and diagnostic.code == ZERO_MASS_RULE:
            raise ZeroMassError(f"pre-check {diagnostic.code}: "
                                f"{diagnostic.message}")
        warnings.warn(f"pre-check {diagnostic.code}: {diagnostic.message}",
                      stacklevel=3)


def clean(readings: ReadingSequence, prior, constraints: ConstraintSet,
          options: CleaningOptions = CleaningOptions()
          ) -> Union[CTGraph, FlatCTGraph]:
    """End-to-end cleaning: readings -> l-sequence -> conditioned ct-graph.

    ``prior`` is anything with a ``distribution(readers)`` method, normally
    a :class:`repro.rfid.priors.PriorModel`.
    """
    lsequence = LSequence.from_readings(readings, prior)
    return build_ct_graph(lsequence, constraints, options)
