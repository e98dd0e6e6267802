"""The multi-object cleaning runtime.

One object is Algorithm 1's business (:mod:`repro.core.algorithm`); a
fleet of objects is this package's: :func:`clean_many` /
:class:`BatchCleaner` fan a collection of reading/l-sequences across
worker processes with per-constraint-set precomputation
(:class:`SharedCleaningPlan`), per-object failure isolation and
deterministic, input-ordered results.  For *live* fleets,
:class:`StreamSessionManager` hosts one bounded-memory
:class:`~repro.streaming.StreamingCleaner` per tag with shared
per-object checkpointing (the engine behind ``rfid-ctg serve``), and
:class:`StreamShardPool` partitions that fleet across worker processes
by object-id hash with ordered output merging (``serve --shards N``).
See ``docs/runtime.md``.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.runtime.batch import (
        BatchCleaner,
        BatchOutcome,
        BatchResult,
        clean_many,
    )
    from repro.runtime.plan import QueryPlan, SharedCleaningPlan
    from repro.runtime.sessions import StreamSessionManager
    from repro.runtime.shards import ServeEngine, StreamShardPool, shard_of

__all__ = [
    "BatchCleaner",
    "BatchOutcome",
    "BatchResult",
    "QueryPlan",
    "ServeEngine",
    "SharedCleaningPlan",
    "StreamSessionManager",
    "StreamShardPool",
    "clean_many",
    "shard_of",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.runtime.batch": (
        "BatchCleaner", "BatchOutcome", "BatchResult", "clean_many",
    ),
    "repro.runtime.plan": ("QueryPlan", "SharedCleaningPlan"),
    "repro.runtime.sessions": ("StreamSessionManager",),
    "repro.runtime.shards": ("ServeEngine", "StreamShardPool", "shard_of"),
})
