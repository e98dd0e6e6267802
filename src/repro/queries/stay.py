"""Stay queries: "where was the object at timestep tau?" (Section 6.6).

Over a ct-graph the answer is exact: the probability of location ``l`` at
``tau`` is the total conditioned mass of the source->target paths whose
``tau``-th step is ``l`` — read off the cached forward pass of
:meth:`repro.queries.session.QuerySession.location_marginal`.

:func:`stay_query_prior` answers the same question from the raw l-sequence
(the independence-assumption interpretation) — the "no cleaning" baseline
of the accuracy experiments.
"""

from __future__ import annotations

from typing import Dict

from repro.core.lsequence import LSequence
from repro.queries.session import QuerySession, QueryTarget

__all__ = ["stay_query", "stay_query_prior"]


def stay_query(graph: QueryTarget, tau: int) -> Dict[str, float]:
    """The conditioned distribution of the object's location at ``tau``.

    Raises :class:`repro.errors.QueryError` for out-of-range timesteps.
    """
    return QuerySession.ensure(graph).location_marginal(tau)


def stay_query_prior(lsequence: LSequence, tau: int) -> Dict[str, float]:
    """The a-priori (uncleaned) distribution of the location at ``tau``."""
    return dict(lsequence.candidates(tau))
