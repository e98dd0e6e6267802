"""A miniature query language over cleaned trajectory data.

The paper positions ct-graphs as the storage format that query engines
(Lahar-style warehouses) consume.  This module provides the thin end of
that wedge: a line-oriented query language so cleaned data can be explored
without writing Python — used by the ``rfid-ctg ql`` CLI command and handy
in notebooks.

Statements (case-insensitive keywords; one statement per call)::

    STAY <tau>                where was the object at timestep <tau>
    MATCH <pattern>           P(trajectory matches '? l[n] ?' pattern)
    VISIT <location>          P(the object ever visits <location>)
    SPAN <location> <t1> <t2> P(at <location> throughout [t1, t2])
    DWELL <location>          distribution of total time at <location>
    FIRST <location>          distribution of the first visit time
    EXPECTED                  expected timesteps per location
    BEST                      the most likely trajectory
    TOP <k>                   the k most likely trajectories
    ENTROPY                   per-timestep position entropy (bits)

Results are returned as :class:`QueryResult` (typed payload + a
``format()`` that renders a terminal-friendly table/line).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List

from repro.errors import QueryError
from repro.queries.session import QuerySession, QueryTarget

__all__ = ["QueryResult", "execute"]


@dataclass(frozen=True)
class QueryResult:
    """A typed query outcome: the statement kind, the payload, a renderer."""

    kind: str
    value: Any

    def format(self, limit: int = 10) -> str:
        """A terminal-friendly rendering of the payload."""
        if self.kind == "stay":
            rows = sorted(self.value.items(), key=lambda kv: -kv[1])[:limit]
            return "\n".join(f"{location:20s} {p:.4f}" for location, p in rows)
        if self.kind in ("match", "visit"):
            return f"{self.value:.4f}"
        if self.kind == "first":
            rows = sorted(self.value.items())[:limit]
            never = 1.0 - sum(self.value.values())
            lines = [f"t={tau:<6d} {p:.4f}" for tau, p in rows]
            lines.append(f"never    {max(0.0, never):.4f}")
            return "\n".join(lines)
        if self.kind == "dwell":
            rows = sorted(self.value.items())[:limit]
            return "\n".join(f"{count:4d} steps  {p:.4f}"
                             for count, p in rows)
        if self.kind == "expected":
            rows = sorted(self.value.items(), key=lambda kv: -kv[1])[:limit]
            return "\n".join(f"{location:20s} {steps:8.1f}"
                             for location, steps in rows)
        if self.kind == "best":
            trajectory, probability = self.value
            return f"p={probability:.4e}  {_compact(trajectory)}"
        if self.kind == "top":
            return "\n".join(
                f"#{rank} p={probability:.4e}  {_compact(trajectory)}"
                for rank, (trajectory, probability)
                in enumerate(self.value, start=1))
        if self.kind == "entropy":
            from repro.viz import render_entropy_sparkline
            return render_entropy_sparkline(self.value)
        raise QueryError(f"unknown result kind {self.kind!r}")


def _compact(trajectory) -> str:
    """A trajectory as its stay sequence: 'A x3 -> B x2 -> ...'."""
    parts: List[str] = []
    run_location, run_length = trajectory[0], 1
    for location in trajectory[1:]:
        if location == run_location:
            run_length += 1
        else:
            parts.append(f"{run_location} x{run_length}")
            run_location, run_length = location, 1
    parts.append(f"{run_location} x{run_length}")
    return " -> ".join(parts)


def execute(graph: QueryTarget, statement: str) -> QueryResult:
    """Run one statement against a cleaned ct-graph.

    ``graph`` may be any graph form — a node-web graph answers through
    the session it caches, a flat graph through a fresh
    :class:`QuerySession` — or a prebuilt session: pass the session when
    running many statements over a flat graph so the shared sweeps are
    computed once.

    Raises :class:`QueryError` for syntax errors, unknown statements or
    out-of-range arguments, and :class:`PatternSyntaxError` for malformed
    ``MATCH`` patterns.
    """
    session = QuerySession.ensure(graph)
    tokens = statement.strip().split(None, 1)
    if not tokens:
        raise QueryError("empty query")
    keyword = tokens[0].upper()
    argument = tokens[1].strip() if len(tokens) > 1 else ""

    if keyword == "STAY":
        tau = _parse_int(argument, "STAY expects a timestep")
        return QueryResult("stay", session.location_marginal(tau))
    if keyword == "MATCH":
        if not argument:
            raise QueryError("MATCH expects a pattern")
        return QueryResult("match", session.match_probability(argument))
    if keyword == "VISIT":
        if not argument:
            raise QueryError("VISIT expects a location name")
        return QueryResult("visit", session.visit_probability(argument))
    if keyword == "SPAN":
        parts = argument.split()
        if len(parts) != 3:
            raise QueryError("SPAN expects: SPAN <location> <start> <end>")
        location = parts[0]
        start = _parse_int(parts[1], "SPAN expects integer bounds")
        end = _parse_int(parts[2], "SPAN expects integer bounds")
        return QueryResult(
            "visit", session.span_probability(location, start, end))
    if keyword == "DWELL":
        if not argument:
            raise QueryError("DWELL expects a location name")
        return QueryResult(
            "dwell", session.time_at_location_distribution(argument))
    if keyword == "FIRST":
        if not argument:
            raise QueryError("FIRST expects a location name")
        return QueryResult(
            "first", session.first_visit_distribution(argument))
    if keyword == "EXPECTED":
        _reject_argument(argument, "EXPECTED")
        return QueryResult("expected", session.expected_visit_counts())
    if keyword == "BEST":
        _reject_argument(argument, "BEST")
        return QueryResult("best", session.most_likely_trajectory())
    if keyword == "TOP":
        k = _parse_int(argument, "TOP expects a count")
        return QueryResult("top", session.top_k_trajectories(k))
    if keyword == "ENTROPY":
        _reject_argument(argument, "ENTROPY")
        return QueryResult("entropy", session.entropy_profile())
    raise QueryError(f"unknown statement {keyword!r}; see repro.queries.ql")


def _parse_int(text: str, message: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise QueryError(f"{message}, got {text!r}") from None


def _reject_argument(argument: str, keyword: str) -> None:
    if argument:
        raise QueryError(f"{keyword} takes no argument, got {argument!r}")
