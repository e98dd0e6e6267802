"""Exporting a ct-graph as a Markovian stream.

A Markovian stream (Lahar; [18, 19, 22] in the paper) is a sequence of
random variables with explicit per-step transition probabilities:
``P(X_0)`` and ``P(X_{tau+1} | X_tau)`` for every ``tau``.

Two granularities are offered:

* **node-level** (exact): the states of step ``tau`` are the ct-graph nodes
  of level ``tau``.  Because node states make the future Markov (see
  :mod:`repro.core.nodes`), this chain reproduces the conditioned
  trajectory distribution exactly — it *is* the ct-graph, re-packaged.
* **location-level** (lossy): states are location names; transitions are
  marginalised over the nodes sharing a location.  This is the view a
  location-granularity warehouse would store; it loses the cross-timestep
  correlations carried by ``stay``/``TL`` (the paper's Section 7 point
  about marginal-only representations), and
  :meth:`MarkovianStream.trajectory_probability` is therefore only an
  approximation of the true conditioned probability.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

try:
    import numpy as np
except ImportError:  # pragma: no cover - no-numpy environments
    from repro.optional import missing_dependency

    np = missing_dependency("numpy", "repro[numpy]")  # type: ignore[assignment]

from repro.core.ctgraph import CTGraph
from repro.errors import QueryError

__all__ = ["MarkovianStream"]


class MarkovianStream:
    """The location-level Markovian stream of a ct-graph.

    ``initial`` is ``P(X_0)``; ``transitions[tau]`` maps a location at step
    ``tau`` to the conditional distribution of the location at ``tau + 1``.
    """

    def __init__(self, initial: Dict[str, float],
                 transitions: Sequence[Dict[str, Dict[str, float]]]) -> None:
        self.initial = dict(initial)
        self.transitions: Tuple[Dict[str, Dict[str, float]], ...] = tuple(
            {src: dict(dst) for src, dst in step.items()}
            for step in transitions)

    @classmethod
    def from_ct_graph(cls, graph: CTGraph) -> "MarkovianStream":
        """Marginalise a ct-graph to location granularity."""
        session = graph.query_session()
        # Per-level node marginals, in the graph's level order (the order
        # ``to_flat`` keeps).
        alphas = session.alphas()
        initial = session.location_marginal(0)
        transitions: List[Dict[str, Dict[str, float]]] = []
        for tau in range(graph.duration - 1):
            # joint[src][dst] = P(X_tau = src, X_tau+1 = dst)
            joint: Dict[str, Dict[str, float]] = {}
            for node, mass in zip(graph.level(tau), alphas[tau]):
                if mass <= 0.0:
                    continue
                row = joint.setdefault(node.location, {})
                for child, probability in node.edges.items():
                    row[child.location] = (row.get(child.location, 0.0)
                                           + mass * probability)
            conditional: Dict[str, Dict[str, float]] = {}
            for src, row in joint.items():
                total = sum(row.values())
                if total > 0.0:
                    conditional[src] = {dst: p / total for dst, p in row.items()}
            transitions.append(conditional)
        return cls(initial, transitions)

    # ------------------------------------------------------------------
    @property
    def duration(self) -> int:
        return len(self.transitions) + 1

    def marginal(self, tau: int) -> Dict[str, float]:
        """``P(X_tau)`` obtained by pushing the initial distribution forward.

        Mass can *leak*: a state reachable at step ``t`` whose transition
        row is absent (or empty) at step ``t`` carries its mass nowhere,
        so the returned dict may sum to **less than 1** — the deficit is
        exactly the leaked mass.  Streams exported by
        :meth:`from_ct_graph` are leak-free (every positive-mass node has
        outgoing edges), but hand-built or warehouse-loaded chains need
        not be; callers wanting a proper distribution must renormalise.
        """
        if not 0 <= tau < self.duration:
            raise QueryError(f"timestep {tau} outside [0, {self.duration})")
        current = dict(self.initial)
        for step in self.transitions[:tau]:
            following: Dict[str, float] = {}
            for src, mass in current.items():
                for dst, probability in step.get(src, {}).items():
                    following[dst] = following.get(dst, 0.0) + mass * probability
            current = following
        return current

    def trajectory_probability(self, trajectory: Sequence[str]) -> float:
        """The chain's probability of a trajectory.

        Exact for the location-level chain; an *approximation* of the
        ct-graph's conditioned probability whenever several node states
        share a location (see the module docstring).
        """
        if len(trajectory) != self.duration:
            raise QueryError(
                f"trajectory has {len(trajectory)} steps, expected {self.duration}")
        probability = self.initial.get(trajectory[0], 0.0)
        for tau in range(len(trajectory) - 1):
            if probability == 0.0:
                return 0.0
            row = self.transitions[tau].get(trajectory[tau], {})
            probability *= row.get(trajectory[tau + 1], 0.0)
        return probability

    def sample(self, rng: Optional[np.random.Generator] = None) -> Tuple[str, ...]:
        """One trajectory drawn from the chain.

        Raises :class:`~repro.errors.QueryError` (naming the offending
        timestep and state) when the walk reaches a state with no outgoing
        transition row, or one whose row's mass sums to zero — the two
        faces of leaked mass (see :meth:`marginal`), from which no next
        step can be drawn.
        """
        if rng is None:
            rng = np.random.default_rng()

        def draw(distribution: Dict[str, float], tau: int,
                 state: Optional[str]) -> str:
            where = (f"state {state!r} at timestep {tau}"
                     if state is not None
                     else f"the initial distribution (timestep {tau})")
            if not distribution:
                raise QueryError(
                    f"cannot sample: {where} has no outgoing transition "
                    "row — the chain leaked its mass there")
            names = list(distribution)
            probabilities = np.array([distribution[name] for name in names],
                                     dtype=float)
            total = probabilities.sum()
            if not total > 0.0:
                raise QueryError(
                    f"cannot sample: the outgoing mass of {where} sums "
                    f"to {total}, not a positive value")
            return names[int(rng.choice(len(names), p=probabilities / total))]

        steps = [draw(self.initial, 0, None)]
        for tau, transition in enumerate(self.transitions):
            state = steps[-1]
            steps.append(draw(transition.get(state, {}), tau, state))
        return tuple(steps)

    def __repr__(self) -> str:
        return f"MarkovianStream(duration={self.duration})"
