"""Queries over cleaned data (Section 6.6).

* **Stay queries** — "where was the object at timestep ``tau``?" —
  :func:`repro.queries.stay.stay_query`;
* **Trajectory queries** — "does the trajectory match the pattern
  ``? l1[n1] ? ... ?``?" — :class:`repro.queries.trajectory.TrajectoryQuery`;
* **Accuracy metrics** against ground truth —
  :mod:`repro.queries.accuracy`.

Every query over a cleaned graph is an exact dynamic program answered by
one engine, :class:`repro.queries.session.QuerySession`, over the graph's
flat form; the functions here are thin wrappers that accept any graph
form or a prebuilt session.  Stay and trajectory queries can also be
evaluated against the raw (unconditioned) l-sequence, which is the "no
cleaning" baseline of the accuracy experiments.
"""

from repro.queries.accuracy import (
    stay_accuracy,
    trajectory_query_accuracy,
)
from repro.queries.analytics import (
    entropy_profile,
    entropy_profile_prior,
    expected_visit_counts,
    first_visit_distribution,
    most_likely_trajectory,
    span_probability,
    time_at_location_distribution,
    top_k_trajectories,
    uncertainty_reduction,
    visit_probability,
)
from repro.queries.meeting import (
    colocation_profile,
    meeting_probability,
    meeting_time_distribution,
)
from repro.queries.pattern import Pattern, PatternAtom
from repro.queries.ql import QueryResult, execute
from repro.queries.session import QuerySession
from repro.queries.stay import stay_query, stay_query_prior
from repro.queries.trajectory import TrajectoryQuery

__all__ = [
    "Pattern",
    "PatternAtom",
    "QueryResult",
    "QuerySession",
    "execute",
    "stay_query",
    "stay_query_prior",
    "TrajectoryQuery",
    "stay_accuracy",
    "trajectory_query_accuracy",
    "most_likely_trajectory",
    "top_k_trajectories",
    "entropy_profile",
    "entropy_profile_prior",
    "uncertainty_reduction",
    "expected_visit_counts",
    "visit_probability",
    "span_probability",
    "time_at_location_distribution",
    "first_visit_distribution",
    "meeting_probability",
    "meeting_time_distribution",
    "colocation_profile",
]
