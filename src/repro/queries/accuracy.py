"""Accuracy of query answers against ground truth (Section 6.6).

The paper's metrics:

* **stay queries** — the accuracy of an answer is the probability it
  assigns to the location the object actually was at (evaluated on the
  ground-truth trajectory);
* **trajectory queries** — the accuracy is the probability assigned to the
  *correct* boolean answer: ``p`` when the ground truth matches the
  pattern, ``1 - p`` otherwise.

Both helpers accept any probabilistic answerer; harness code passes either
a cleaned ct-graph or the raw-prior baseline.
"""

from __future__ import annotations

from typing import Dict, Sequence, Union

from repro.core.lsequence import LSequence
from repro.errors import QueryError
from repro.queries.pattern import Pattern
from repro.queries.session import QueryTarget
from repro.queries.stay import stay_query, stay_query_prior
from repro.queries.trajectory import TrajectoryQuery

__all__ = ["stay_accuracy", "trajectory_query_accuracy"]


def stay_accuracy(answer: Dict[str, float], true_location: str) -> float:
    """The probability the stay answer assigns to the true location."""
    return answer.get(true_location, 0.0)


def trajectory_query_accuracy(probability_yes: float, truth_matches: bool) -> float:
    """The probability assigned to the correct yes/no answer."""
    if not 0.0 <= probability_yes <= 1.0 + 1e-9:
        raise QueryError(f"not a probability: {probability_yes}")
    probability_yes = min(1.0, probability_yes)
    return probability_yes if truth_matches else 1.0 - probability_yes


def stay_accuracy_on(source: Union[QueryTarget, LSequence], tau: int,
                     true_trajectory: Sequence[str]) -> float:
    """Convenience: answer a stay query on ``source`` (a cleaned graph in
    any form, or the raw l-sequence) and score it."""
    if isinstance(source, LSequence):
        answer = stay_query_prior(source, tau)
    else:
        answer = stay_query(source, tau)
    return stay_accuracy(answer, true_trajectory[tau])


def trajectory_accuracy_on(source: Union[QueryTarget, LSequence],
                           pattern: Union[Pattern, str],
                           true_trajectory: Sequence[str]) -> float:
    """Convenience: answer a trajectory query on ``source`` (a cleaned
    graph in any form, or the raw l-sequence) and score it."""
    query = TrajectoryQuery(pattern)
    if isinstance(source, LSequence):
        probability = query.probability_prior(source)
    else:
        probability = query.probability(source)
    return trajectory_query_accuracy(probability,
                                     query.matches(true_trajectory))
