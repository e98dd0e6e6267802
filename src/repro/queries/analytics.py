"""Analytics over cleaned trajectories: MAP paths, top-k, uncertainty,
visit statistics.

Everything here is an exact dynamic program over the levelled ct-graph,
evaluated by :class:`~repro.queries.session.QuerySession` (each function
accepts any graph form or a prebuilt session; a node-web graph answers
through the session it caches):

* :func:`most_likely_trajectory` — the Viterbi (maximum a-posteriori) path;
* :func:`top_k_trajectories` — the k most probable valid trajectories
  (best-first search over path prefixes);
* :func:`entropy_profile` / :func:`uncertainty_reduction` — per-timestep
  Shannon entropy of the location marginal, quantifying the paper's
  headline ("reducing the inherent uncertainty of trajectory data");
* :func:`expected_visit_counts` — expected number of timesteps per
  location;
* :func:`visit_probability` — P(the object ever visits a location);
* :func:`first_visit_distribution` — when the first visit happens.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.lsequence import LSequence, Trajectory
from repro.errors import QueryError
from repro.queries.session import QuerySession, QueryTarget, _entropy

__all__ = [
    "most_likely_trajectory",
    "top_k_trajectories",
    "entropy_profile",
    "entropy_profile_prior",
    "uncertainty_reduction",
    "expected_visit_counts",
    "visit_probability",
    "span_probability",
    "first_visit_distribution",
    "time_at_location_distribution",
]


# ----------------------------------------------------------------------
# MAP trajectory and top-k
# ----------------------------------------------------------------------

def most_likely_trajectory(graph: QueryTarget) -> Tuple[Trajectory, float]:
    """The maximum-probability valid trajectory (Viterbi over the graph).

    Ties are broken deterministically: among equal-probability MAP paths
    the lexicographically smallest location sequence wins.
    """
    return QuerySession.ensure(graph).most_likely_trajectory()


def top_k_trajectories(graph: QueryTarget,
                       k: int) -> List[Tuple[Trajectory, float]]:
    """The most probable valid trajectories, most probable first.

    Contract: returns exactly ``min(k, graph.num_valid_trajectories())``
    entries — a graph with fewer than ``k`` valid trajectories yields them
    all, never an error and never padding.  Equal-probability trajectories
    are returned in discovery order (level order, then edge insertion
    order).  See :meth:`QuerySession.top_k_trajectories
    <repro.queries.session.QuerySession.top_k_trajectories>`.
    """
    return QuerySession.ensure(graph).top_k_trajectories(k)


# ----------------------------------------------------------------------
# uncertainty
# ----------------------------------------------------------------------

def entropy_profile(graph: QueryTarget) -> List[float]:
    """Shannon entropy (bits) of the cleaned location marginal, per step."""
    return QuerySession.ensure(graph).entropy_profile()


def entropy_profile_prior(lsequence: LSequence) -> List[float]:
    """Shannon entropy (bits) of the raw a-priori marginal, per step."""
    return [_entropy(lsequence.candidates(tau))
            for tau in range(lsequence.duration)]


def uncertainty_reduction(lsequence: LSequence, graph: QueryTarget) -> float:
    """Average per-step entropy drop (bits) achieved by conditioning.

    Positive values mean cleaning made positions more certain on average —
    the quantified version of the paper's title claim.
    """
    if lsequence.duration != graph.duration:
        raise QueryError("l-sequence and graph have different durations")
    before = entropy_profile_prior(lsequence)
    after = entropy_profile(graph)
    return sum(b - a for b, a in zip(before, after)) / graph.duration


# ----------------------------------------------------------------------
# visit statistics
# ----------------------------------------------------------------------

def expected_visit_counts(graph: QueryTarget) -> Dict[str, float]:
    """Expected number of timesteps spent at each location."""
    return QuerySession.ensure(graph).expected_visit_counts()


def visit_probability(graph: QueryTarget, location: str) -> float:
    """P(the object is at ``location`` at some timestep).

    Computed as 1 minus the total mass of paths that avoid the location —
    a forward pass restricted to non-``location`` nodes.
    """
    return QuerySession.ensure(graph).visit_probability(location)


def span_probability(graph: QueryTarget, location: str,
                     start: int, end: int) -> float:
    """P(the object is at ``location`` throughout ``[start, end]``).

    Both bounds are inclusive timesteps.  A forward pass whose flow is
    restricted to ``location`` nodes inside the window — the probabilistic
    version of "was the patient in the isolation room the whole hour?".
    """
    return QuerySession.ensure(graph).span_probability(location, start, end)


def time_at_location_distribution(graph: QueryTarget,
                                  location: str) -> Dict[int, float]:
    """The distribution of the *total* time spent at ``location``.

    Returns ``{k: P(exactly k timesteps at location)}`` including ``k=0``.
    The DP carries a per-node count histogram, so cost is
    ``O(nodes * duration)`` in the worst case — fine for DU/LT graphs,
    potentially heavy on huge TT graphs (expected value via
    :func:`expected_visit_counts` is always cheap).
    """
    return QuerySession.ensure(graph).time_at_location_distribution(location)


def first_visit_distribution(graph: QueryTarget,
                             location: str) -> Dict[int, float]:
    """P(first visit to ``location`` happens at timestep ``tau``).

    The returned dict maps timesteps to probabilities; mass missing from
    the dict is the probability of never visiting.  Forward pass over
    "not visited yet" prefixes, emitting mass on first entry.
    """
    return QuerySession.ensure(graph).first_visit_distribution(location)
