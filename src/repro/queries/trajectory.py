"""Trajectory queries: probabilistic pattern matching (Section 6.6).

The answer to a trajectory query over a ct-graph is *yes* with probability
``p`` = total conditioned mass of the source->target paths whose location
sequence matches the pattern.  :meth:`QuerySession.match_probability
<repro.queries.session.QuerySession.match_probability>` evaluates it: the
pattern's DFA runs in lock-step with a forward pass over the graph's flat
form, so determinism of the DFA makes the sum exact.

The same DP over the raw l-sequence (states are ``(location, DFA state)``
pairs) yields the uncleaned baseline probability under the independence
assumption.
"""

from __future__ import annotations

from typing import Dict, Sequence, Union

from repro.core.lsequence import LSequence
from repro.queries.pattern import Pattern, PatternDFA
from repro.queries.session import QuerySession, QueryTarget

__all__ = ["TrajectoryQuery"]


class TrajectoryQuery:
    """A compiled trajectory query, evaluatable on graphs and l-sequences."""

    def __init__(self, pattern: Union[Pattern, str]) -> None:
        self.pattern = (Pattern.parse(pattern) if isinstance(pattern, str)
                        else pattern)
        self._dfa = self.pattern.dfa()

    def dfa(self) -> PatternDFA:
        """The pattern's compiled DFA."""
        return self._dfa

    # ------------------------------------------------------------------
    def probability(self, graph: QueryTarget) -> float:
        """P(the cleaned trajectory matches the pattern).

        Accepts any graph form or a prebuilt session; a node-web graph
        answers through its cached session.
        """
        return QuerySession.ensure(graph).match_probability(self)

    def probability_prior(self, lsequence: LSequence) -> float:
        """P(match) under the raw independence-assumption interpretation."""
        dfa = self._dfa
        forward: Dict[int, float] = {}
        for location, probability in lsequence.candidates(0).items():
            state = dfa.step(dfa.start, location)
            forward[state] = forward.get(state, 0.0) + probability
        for tau in range(1, lsequence.duration):
            step: Dict[int, float] = {}
            candidates = lsequence.candidates(tau)
            for state, mass in forward.items():
                for location, probability in candidates.items():
                    next_state = dfa.step(state, location)
                    step[next_state] = (step.get(next_state, 0.0)
                                        + mass * probability)
            forward = step
        return sum(mass for state, mass in forward.items()
                   if state in dfa.accepting)

    def matches(self, trajectory: Sequence[str]) -> bool:
        """Deterministic evaluation on a concrete trajectory."""
        return self.pattern.matches(trajectory)

    def __repr__(self) -> str:
        return f"TrajectoryQuery({str(self.pattern)!r})"
