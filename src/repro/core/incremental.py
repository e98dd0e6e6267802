"""The frontier arithmetic of online (streaming) cleaning.

The batch Algorithm 1 needs the whole reading sequence before it can
condition.  Deployments, however, receive readings as a stream and want
a live position estimate.  :class:`repro.streaming.StreamingCleaner`
provides it by keeping the forward frontier of node states under the
Definition 3 successor relation; this module holds the arithmetic it
runs on every reading:

* :func:`coerce_candidate_row` validates and normalises one timestep's
  candidate distribution;
* :func:`advance_frontier` is one step of the filtered-forward
  recursion (the python oracle), and :func:`advance_frontier_routed`
  routes the step to it or to the vectorized
  :class:`~repro.core.kernels.FrontierKernel`;
* :func:`frontier_to_dict` turns either frontier representation into
  the oracle's dict form.

The live frontier yields the *filtered* estimate
``P(X_now | readings so far, constraints held so far)`` — the standard
online quantity (it conditions on validity of the prefix only, so it
will generally differ from the final smoothed marginal).

One caveat: the exact ``TL`` pruning of the batch algorithm
(:class:`repro.core.nodes.DepartureFilter`) needs the *future* support and
is therefore unavailable online; the live frontier can carry more node
states than the batch forward phase would.  Probabilities are unaffected.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple, Union

from repro.core.constraints import ConstraintSet
from repro.core.nodes import NodeState, source_states, successor_state
from repro.errors import ReadingSequenceError

__all__ = [
    "Frontier",
    "advance_frontier",
    "advance_frontier_routed",
    "coerce_candidate_row",
    "frontier_to_dict",
]

_PROBABILITY_FLOOR = 1e-15


def coerce_candidate_row(candidates: Mapping[str, float],
                         timestep: int) -> Dict[str, float]:
    """One timestep's candidate distribution, validated and normalised.

    ``candidates`` must be a mapping of location to probability.  Every
    probability is coerced through ``float`` exactly once and the
    *coerced* value is reused for the positivity filter and the row — an
    int, a numpy scalar or a numeric string therefore behaves like the
    float it denotes instead of crashing with a bare ``TypeError`` deep
    in a comparison.  Raises :class:`ReadingSequenceError` when
    ``candidates`` is not a mapping, when a value does not coerce, is
    NaN/infinite/negative (NaN fails every ``>`` test, so the floor
    filter alone would silently swallow it), or when no location keeps
    positive mass.  Entry order is preserved — it
    determines downstream dict iteration, hence bit-exact results.
    """
    if not isinstance(candidates, Mapping):
        raise ReadingSequenceError(
            f"timestep {timestep}: candidates must map locations to "
            f"probabilities, got {type(candidates).__name__}")
    coerced: Dict[str, float] = {}
    for location, p in candidates.items():
        try:
            value = float(p)
        except (TypeError, ValueError):
            raise ReadingSequenceError(
                f"timestep {timestep}: probability of {location!r} is "
                f"{p!r}, which does not coerce to a float") from None
        if not (value >= 0.0 and math.isfinite(value)):
            raise ReadingSequenceError(
                f"timestep {timestep}: probability of "
                f"{location!r} is {value!r}; candidate probabilities "
                "must be finite and non-negative")
        if value > _PROBABILITY_FLOOR:
            coerced[location] = value
    if not coerced:
        raise ReadingSequenceError(
            f"timestep {timestep}: no location has positive "
            "probability")
    total = math.fsum(coerced.values())
    return {location: p / total for location, p in coerced.items()}


def advance_frontier(frontier: Dict[NodeState, float],
                     row: Mapping[str, float], tau: int,
                     constraints: ConstraintSet) -> Dict[NodeState, float]:
    """One step of the filtered-forward recursion.

    Returns the unnormalised (peak-rescaled) forward mass over the node
    states of timestep ``tau`` given the mass over timestep ``tau - 1``
    (``tau == 0`` seeds from :func:`source_states` instead).  This is the
    single implementation of the python recursion —
    :class:`repro.streaming.StreamingCleaner` calls it whatever its
    ``window``, which is why the window never changes a filtered estimate
    by a single bit.  Returns an empty dict when no valid continuation
    exists; the input ``frontier`` is never mutated.
    """
    advanced: Dict[NodeState, float] = {}
    if tau == 0:
        for location, state in source_states(row, constraints).items():
            advanced[state] = row[location]
        return advanced
    # Successor tuples are interned per step: a successor equal to one of
    # the *input* frontier's states reuses that exact tuple object, so
    # long streams (and the retained levels of a windowed cleaner) share
    # state tuples across levels instead of holding equal copies.
    interned: Dict[NodeState, NodeState] = {state: state
                                            for state in frontier}
    for state, mass in frontier.items():
        for destination, probability in row.items():
            successor = successor_state(tau - 1, state, destination,
                                        constraints)
            if successor is not None:
                successor = interned.setdefault(successor, successor)
                advanced[successor] = (advanced.get(successor, 0.0)
                                       + mass * probability)
    # Rescale to ward off underflow on long streams (only ratios matter
    # for the filtered distribution).  A peak of exactly 1.0 makes the
    # rescale the identity, so the dict rebuild is skipped.
    peak = max(advanced.values(), default=0.0)
    if peak > 0.0 and peak != 1.0:
        advanced = {state: mass / peak
                    for state, mass in advanced.items()}
    return advanced


#: A live forward frontier in either representation: the python oracle's
#: ``Dict[NodeState, float]`` or the vectorized
#: :class:`~repro.core.kernels.KernelFrontier` (signature node + float64
#: mass array).  Both are falsy exactly when no valid continuation exists
#: and ``len()`` is the state count.
Frontier = Union[Dict[NodeState, float], "KernelFrontier"]

if TYPE_CHECKING:
    from repro.core.kernels import FrontierKernel, KernelFrontier


def frontier_to_dict(frontier: "Frontier") -> Dict[NodeState, float]:
    """The oracle-form dict of either frontier representation.

    For a kernel frontier this materialises absolute node states in the
    oracle's key order with the kernel's float bits unchanged — the
    bridge that lets checkpoints, window conditioning and backend
    switches treat both representations uniformly.
    """
    if isinstance(frontier, dict):
        return frontier
    return frontier.to_dict()


def advance_frontier_routed(frontier: "Frontier", row: Mapping[str, float],
                            tau: int, constraints: ConstraintSet, *,
                            backend: str = "python",
                            kernel: Optional["FrontierKernel"] = None,
                            ) -> Tuple["Frontier",
                                       Optional["FrontierKernel"]]:
    """One ingest step, routed to the oracle or the vectorized kernel.

    The routing mirrors PR 7's sweep kernels: ``backend="python"`` always
    runs :func:`advance_frontier`; ``"numpy"`` runs the compiled
    transition tables of :class:`~repro.core.kernels.FrontierKernel` when
    numpy is available (falling back silently otherwise); ``"auto"``
    engages them only from
    :data:`~repro.core.kernels.KERNEL_MIN_LEVEL_EDGES` predicted
    transitions per step.  Returns ``(new_frontier, kernel)`` — the
    kernel is created lazily on first numpy use and must be threaded back
    in by the caller so its table cache persists across steps (and may be
    shared across a fleet's sessions).  Representation switches are
    handled here: a dict frontier entering the kernel path is adopted
    bit-exactly, a kernel frontier falling back to python is materialised
    first.
    """
    from repro.core import kernels as _kernels

    if backend == "python":
        resolved = "python"
    else:
        predicted_edges = max(1, len(frontier)) * len(row)
        resolved = _kernels.resolve_backend(backend,
                                            level_edges=predicted_edges)
    if resolved == "numpy":
        if kernel is None:
            kernel = _kernels.FrontierKernel(constraints)
        if tau == 0:
            return kernel.seed(row), kernel
        if isinstance(frontier, dict):
            live = kernel.enter(frontier, tau - 1)
        else:
            live = frontier
        return kernel.advance(live, row), kernel
    return (advance_frontier(frontier_to_dict(frontier), row, tau,
                             constraints), kernel)
