"""A content-addressed directory of cleaned ``.ctg`` graphs.

:class:`GraphStore` turns a directory into a cache of cleaning results:
every entry is one ``rfid-ctg/ctg@1`` file named by the SHA-256 of the
*cleaning problem* it answers — the interpreted l-sequence (which folds
the readings and the map prior together), the constraint set, and the
output-affecting options.  Keying by content means repeat cleanings of
the same problem are cache hits whoever asks, across processes and runs:
:meth:`GraphStore.clean` answers a hit with a zero-copy
:class:`~repro.store.format.MappedCTGraph` in microseconds, and a miss
by running Algorithm 1 with ``materialize="store"`` — the engine writes
its arrays straight into the ``.ctg`` layout, the store publishes the
file atomically (temp + ``os.replace``), and the caller gets the same
mmap view a hit would have produced.

The batch runtime composes with this: ``clean_many(..., store=...)``
workers consult the store first, write misses as ``.ctg`` segments, and
ship only the *path* back to the parent, which re-opens the file as an
mmap — no graph ever crosses the process pipe (see
:mod:`repro.runtime.batch`).

What the key covers (and does not): the l-sequence candidates in exact
iteration order with bit-exact (``float.hex``) probabilities, the
constraint set (order-insensitive) and ``truncated_stay_policy``, plus
an optional caller ``extra`` salt (e.g. a map revision id).  The
``engine`` and ``backend`` choices are deliberately *excluded*: the
reference and compact engines are bit-exact by contract and every
backend runs the same sweep, so any build may serve another's cache
entry.  The key payload still carries a ``backend`` field, fixed to
``"python"``, so keys written before the field was fixed stay valid.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace
from functools import lru_cache
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from repro.errors import ReadingSequenceError, StoreError
from repro.store.format import MappedCTGraph, load_ctg, save_ctg

__all__ = ["GraphStore", "content_key"]

#: The version tag hashed into every key — bump when the key payload (or
#: anything that changes stored bytes for the same payload) changes.
KEY_FORMAT = "rfid-ctg/ctg-key@1"


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@lru_cache(maxsize=16)
def _key_prefix(statements: Tuple[str, ...], extra_json: str):
    """The SHA-256 state over the key payload's text up to its levels.

    ``json.dumps(sort_keys=True)`` writes the payload's keys in the
    order ``backend``, ``constraints``, ``extra``, ``format``,
    ``levels``, ``truncated_stay_policy``, so everything before
    ``levels`` depends on the constraint set and ``extra`` alone.
    """
    head = ('{"backend":"python"'
            + ',"constraints":' + _dumps(statements)
            + ',"extra":' + extra_json
            + ',"format":' + _dumps(KEY_FORMAT) + ',"levels":')
    return hashlib.sha256(head.encode("utf-8"))


def content_key(lsequence, constraints, options=None, *,
                extra=None) -> str:
    """The SHA-256 cache key of one cleaning problem (hex, 64 chars).

    ``lsequence`` must be the *interpreted*
    :class:`~repro.core.lsequence.LSequence` — interpretation folds the
    raw readings and the map prior into the candidate distributions, so
    the key captures both.  Candidate iteration order is hashed as-is
    (it determines edge order, hence bit-exact output), and every
    probability is hashed via ``float.hex`` so distinct doubles never
    collide through decimal rounding.

    The key is the SHA-256 of one JSON text, ``json.dumps(payload,
    sort_keys=True, separators=(",", ":"))``.  The part of that text
    before the levels is hashed once per (constraint statements,
    ``extra``) and kept in a small cache of hash states, which
    each key copies before it hashes its own levels: a batch whose
    objects share one constraint set encodes and hashes the statements
    once.  A batch whose objects each carry a distinct set pays the full
    encoding for every object, as an uncached key would.
    """
    if options is None:
        from repro.core.algorithm import CleaningOptions  # lazy

        options = CleaningOptions()
    levels: List[List[List[str]]] = []
    for tau in range(lsequence.duration):
        levels.append([[location, float(probability).hex()]
                       for location, probability
                       in lsequence.candidates(tau).items()])
    digest = _key_prefix(constraints.sorted_statements,
                         _dumps(extra)).copy()
    digest.update((_dumps(levels) + ',"truncated_stay_policy":'
                   + _dumps(options.truncated_stay_policy) + "}"
                   ).encode("utf-8"))
    return digest.hexdigest()


class GraphStore:
    """A directory of ``.ctg`` entries keyed by cleaning-problem content.

    The store is a plain directory — every entry is ``<key>.ctg``, keys
    are :func:`content_key` digests, and publication is atomic (written
    to a dot-prefixed temp file, then ``os.replace``d), so concurrent
    writers of the same key race benignly: last replace wins with
    identical bytes.  Instances are small and picklable; the batch
    runtime ships one to every worker.  ``hits``/``misses`` count this
    instance's :meth:`clean` traffic only (each worker counts its own).
    """

    suffix = ".ctg"

    def __init__(self, root, *, mmap: bool = True) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.mmap = mmap
        self.hits = 0
        self.misses = 0

    # -- keys and paths ------------------------------------------------
    def key_for(self, lsequence, constraints, options=None, *,
                extra=None) -> str:
        return content_key(lsequence, constraints, options, extra=extra)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}{self.suffix}"

    def temp_path_for(self, key: str) -> Path:
        """A writer-private staging path (same filesystem, so the
        ``os.replace`` publish is atomic)."""
        return self.root / f".{key}.{os.getpid()}.tmp"

    def commit(self, temp_path, key: str) -> Path:
        """Atomically publish a staged ``.ctg`` file under ``key``."""
        final = self.path_for(key)
        os.replace(temp_path, final)
        return final

    # -- container surface ---------------------------------------------
    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob(f"*{self.suffix}"))

    def keys(self) -> List[str]:
        return sorted(path.stem for path in self.root.glob(f"*{self.suffix}"))

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    # -- load / store --------------------------------------------------
    def load(self, key: str, *, mmap: Optional[bool] = None
             ) -> MappedCTGraph:
        path = self.path_for(key)
        if not path.exists():
            raise StoreError(
                f"no graph stored under key {key!r} in {self.root}")
        return load_ctg(path, mmap=self.mmap if mmap is None else mmap)

    def put(self, graph, key: str) -> Path:
        """Store a finished graph under ``key`` (atomic publish)."""
        temp = self.temp_path_for(key)
        try:
            save_ctg(graph, temp)
            return self.commit(temp, key)
        except BaseException:
            if temp.exists():
                temp.unlink()
            raise

    # -- the cache-or-clean entry point --------------------------------
    def clean(self, sequence, constraints, *, options=None,
              prior=None, plan=None, extra=None) -> MappedCTGraph:
        """Answer a cleaning problem from the store, cleaning on a miss.

        ``sequence`` is an :class:`~repro.core.lsequence.LSequence` or a
        raw :class:`~repro.core.lsequence.ReadingSequence` (then
        ``prior`` is required, exactly as in the batch runtime).  On a
        miss, Algorithm 1 runs with ``materialize="store"`` — the engine
        writes the ``.ctg`` directly and maps it — and the entry is
        published atomically before that view is returned.  ``plan`` threads a
        :class:`~repro.runtime.plan.SharedCleaningPlan` through, sharing
        the engine's transition cache across the objects of a batch.
        """
        from repro.core.algorithm import CleaningOptions, build_ct_graph
        from repro.core.lsequence import LSequence, ReadingSequence

        if isinstance(sequence, ReadingSequence):
            if prior is None:
                raise ReadingSequenceError(
                    "a raw ReadingSequence needs prior=... to interpret it")
            lsequence = LSequence.from_readings(sequence, prior)
        else:
            lsequence = sequence
        if options is None:
            options = CleaningOptions()
        key = self.key_for(lsequence, constraints, options, extra=extra)
        path = self.path_for(key)
        if path.exists():
            self.hits += 1
            return self.load(key)
        temp = self.temp_path_for(key)
        graph = None
        try:
            graph = build_ct_graph(
                lsequence, constraints,
                replace(options, materialize="store", output=str(temp)),
                plan=plan)
            self.commit(temp, key)
        except BaseException:
            if graph is not None:
                graph.close()
            if temp.exists():
                temp.unlink()
            raise
        self.misses += 1
        if not self.mmap:
            # The engine's view is mapped; this store serves private memory.
            graph.close()
            return self.load(key)
        graph.path = path
        return graph

    def __repr__(self) -> str:
        return (f"GraphStore(root={str(self.root)!r}, entries={len(self)}, "
                f"hits={self.hits}, misses={self.misses})")
