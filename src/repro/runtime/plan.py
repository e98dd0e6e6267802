"""Per-constraint-set precomputation shared across the objects of a batch.

Algorithm 1 does two kinds of work that depend only on the constraint set
(and the location support of a timestep), not on the individual object:

* the compact engine's successor rows — interned states and memoised
  transitions (:class:`repro.core.engine.EngineCache`), recomputed for
  every object that meets the same state under the same support;
* the static part of the analyzer pre-check (rules C001-C004 of
  :mod:`repro.analysis`), which inspects the constraints alone.

:class:`SharedCleaningPlan` hoists both.  One plan serves every object
cleaned under the same :class:`~repro.core.constraints.ConstraintSet`:
``build_ct_graph(..., plan=plan)`` reuses the plan's engine cache and
runs the ``precheck`` option's constraints-only rules once per plan.  A
plan never changes results — only where the bookkeeping lives — and is
cheap to construct, so ``workers=1`` batches and per-process worker
state both just build one per constraint set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

from repro.core.constraints import ConstraintSet
from repro.errors import BatchConfigurationError

__all__ = ["QueryPlan", "SharedCleaningPlan"]

#: Statement keywords the batch query plan accepts (the ``repro.queries.ql``
#: language).  Checked at plan construction so a typo fails in the parent,
#: not object-by-object inside the workers.
_QL_KEYWORDS = frozenset({
    "STAY", "MATCH", "VISIT", "SPAN", "DWELL", "FIRST",
    "EXPECTED", "BEST", "TOP", "ENTROPY",
})


@dataclass(frozen=True)
class QueryPlan:
    """Queries to run against every graph of a batch, inside the workers.

    ``statements`` are :mod:`repro.queries.ql` statements (one string or a
    sequence); each cleaned object's :class:`~repro.runtime.batch
    .BatchOutcome` then carries the per-statement
    :class:`~repro.queries.ql.QueryResult` tuple in ``outcome.queries``.
    Results are computed through one shared
    :class:`~repro.queries.session.QuerySession` per object, so the batch
    pays one forward sweep per object however many statements ride along.

    With ``keep_graphs=False`` (the default) the graphs themselves are
    dropped after querying — only the query payloads travel back to the
    parent, which is the point: marginals and MAP paths are a few hundred
    bytes where a pickled graph is megabytes.  Dropping the graph also
    lets ``materialize="auto"`` cleanings run flat end to end (no
    ``CTNode`` is ever built).  Set ``keep_graphs=True`` to get both the
    graphs and the query results.

    A malformed statement (bad keyword) raises
    :class:`~repro.errors.BatchConfigurationError` here; argument errors
    (say an out-of-range ``STAY`` timestep) surface per object as failed
    outcomes, exactly like a :class:`~repro.errors.ZeroMassError` would.
    """

    statements: Union[str, Sequence[str], Tuple[str, ...]]
    keep_graphs: bool = False

    def __post_init__(self) -> None:
        statements = self.statements
        if isinstance(statements, str):
            statements = (statements,)
        normalized = tuple(statements)
        if not normalized:
            raise BatchConfigurationError(
                "a QueryPlan needs at least one statement")
        for statement in normalized:
            if not isinstance(statement, str) or not statement.strip():
                raise BatchConfigurationError(
                    f"query statements must be non-empty strings, "
                    f"got {statement!r}")
            keyword = statement.strip().split(None, 1)[0].upper()
            if keyword not in _QL_KEYWORDS:
                raise BatchConfigurationError(
                    f"unknown query statement keyword {keyword!r}; "
                    f"choose from {sorted(_QL_KEYWORDS)}")
        object.__setattr__(self, "statements", normalized)

    def __repr__(self) -> str:
        return (f"QueryPlan({list(self.statements)!r}, "
                f"keep_graphs={self.keep_graphs})")


class SharedCleaningPlan:
    """Reusable cleaning state for one constraint set.

    Not thread-safe by design (the caches are plain dicts); the batch
    runtime gives every worker process its own plan.
    """

    def __init__(self, constraints: ConstraintSet, *,
                 static_checked: bool = False) -> None:
        self.constraints = constraints
        self._engine_cache = None
        # ``static_checked=True`` records that the constraints-only
        # analysis already ran elsewhere (the batch parent runs it once
        # before spawning workers, so respawned pools never repeat it and
        # its warnings surface exactly once, in the parent).
        self._static_checked = static_checked

    # ------------------------------------------------------------------
    # the compact engine's transition cache
    # ------------------------------------------------------------------
    def engine_cache(self):
        """The plan's :class:`repro.core.engine.EngineCache`, built lazily.

        Transition rows depend on the constraint set only (the departure
        filter's time-dependence is folded into the row keys), so one
        cache legitimately serves every object cleaned under this plan —
        ``clean_many`` workers warm it once per constraint set.
        """
        if self._engine_cache is None:
            from repro.core.engine import EngineCache

            self._engine_cache = EngineCache(self.constraints)
        return self._engine_cache

    # ------------------------------------------------------------------
    # run-once analyzer pre-check
    # ------------------------------------------------------------------
    def ensure_static_checked(self) -> None:
        """Run the constraints-only analysis (rules C001-C004) exactly once.

        ERROR diagnostics surface as warnings, as on the sequential path.
        Idempotent — later calls (and plans constructed with
        ``static_checked=True``) are no-ops, which is what lets the batch
        runtime respawn crashed worker pools without re-analyzing or
        re-warning.
        """
        if self._static_checked:
            return
        from repro.core.algorithm import _run_precheck

        _run_precheck(self.constraints)
        self._static_checked = True

    def precheck(self, options) -> None:
        """The batch variant of ``CleaningOptions.precheck``.

        ``"warn"`` and ``"error"`` run the constraints-only rules
        C001-C004 once per plan, not once per object, and warn on each
        ERROR as a sequential build does.  Nothing runs per object: an
        inconsistent object raises the engine's own
        :class:`~repro.errors.ZeroMassError` from its build.
        """
        if options.precheck != "off":
            self.ensure_static_checked()

    def __repr__(self) -> str:
        return f"SharedCleaningPlan({self.constraints!r})"
