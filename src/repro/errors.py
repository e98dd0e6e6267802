"""Exception hierarchy for the rfid-ctg library.

All library-specific failures derive from :class:`ReproError`, so callers can
catch a single type at an API boundary while tests can assert the precise
subtype.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ReproError",
    "MapModelError",
    "UnknownLocationError",
    "CalibrationError",
    "ConstraintError",
    "ReadingSequenceError",
    "InconsistentReadingsError",
    "ZeroMassError",
    "GraphInvariantError",
    "PatternSyntaxError",
    "QueryError",
    "BatchConfigurationError",
    "WorkerCrashError",
    "CleaningTimeoutError",
    "StoreError",
    "StoreFormatError",
    "StoreChecksumError",
    "GraphExportError",
]


class ReproError(Exception):
    """Base class of every exception raised by the library."""


class MapModelError(ReproError):
    """An invalid building/map description (overlapping rooms, bad doors...)."""


class UnknownLocationError(MapModelError):
    """A location name was used that does not exist on the map."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown location: {name!r}")
        self.name = name


class CalibrationError(ReproError):
    """The reader-calibration matrix is malformed or inconsistent."""


class ConstraintError(ReproError):
    """An integrity constraint is malformed (bad locations, negative times...)."""


class ReadingSequenceError(ReproError):
    """A reading sequence is malformed (gaps, duplicate timestamps...)."""


class InconsistentReadingsError(ReproError):
    """No trajectory compatible with the readings satisfies the constraints.

    Conditioning is undefined in this case (the valid prior mass is zero);
    both the ct-graph algorithm and the naive enumerator raise this error.
    """


class ZeroMassError(InconsistentReadingsError):
    """The total valid prior mass is exactly 0 — conditioning is undefined.

    This is the divide-by-zero of Definition 1: every trajectory compatible
    with the readings violates some constraint, so there is nothing to
    renormalise.  Raised by the conditioning/normalisation paths (both
    Algorithm 1 and the naive enumerator).

    ``failed_at`` is the timestep whose level the forward pass of either
    Algorithm 1 builder died entering (0 when no source state is legal).
    The node state makes validity of the future Markov, so on an
    inconsistent object the forward pass is where the build stops.  It is
    ``None`` where no level died: a backward sweep or source
    normalisation that finds only zero masses, and the naive enumerator.
    ``rfid-ctg analyze`` (rule C005) reports the same timestep.
    """

    def __init__(self, detail: str, failed_at: Optional[int] = None) -> None:
        super().__init__(
            f"{detail}; the valid prior mass is 0 and conditioning is "
            "undefined — run `rfid-ctg analyze` (repro.analysis.analyze) "
            "on the constraints and readings to locate the contradiction")
        self.failed_at = failed_at


class GraphInvariantError(ReproError, AssertionError):
    """A finished ct-graph violates a Definition 4 invariant.

    Raised by :meth:`repro.core.ctgraph.CTGraph.validate`.  The class also
    derives from :class:`AssertionError` so long-standing callers that
    caught assertion failures keep working — but unlike a bare ``assert``,
    the checks are real ``raise`` statements and therefore survive
    ``python -O`` / ``PYTHONOPTIMIZE`` (which strips asserts).
    """


class PatternSyntaxError(ReproError):
    """A trajectory-query pattern string could not be parsed."""


class QueryError(ReproError):
    """A query is invalid for the graph it is evaluated on (e.g. bad timestamp)."""


class BatchConfigurationError(ReproError, ValueError):
    """The batch runtime was configured inconsistently.

    Covers bad ``workers``/``chunk_size``/``timeout_seconds``/``max_retries``
    values and a sequences/constraint-sets length mismatch.  Also derives
    from :class:`ValueError` so long-standing callers that caught the bare
    ``ValueError`` these paths used to raise keep working.
    """


class WorkerCrashError(ReproError):
    """A batch worker process died while cleaning an object.

    Raised semantics differ from the other domain errors: the exception is
    never seen inside a worker (the process is already gone — segfault,
    OOM kill, ``os._exit`` in a native dependency).  The parent-side batch
    runtime synthesises it after quarantining the object whose task kept
    killing the pool, and records it as that object's
    :class:`~repro.runtime.BatchOutcome`.
    """


class CleaningTimeoutError(ReproError):
    """An object exceeded the batch runtime's per-object wall-clock budget.

    Synthesised by the parent process when a worker's future misses its
    ``timeout_seconds`` deadline (typically a pathological ct-graph blowup
    past the C006 bound); the stuck worker is reclaimed and its surviving
    batch-mates are re-driven unharmed.
    """


class StoreError(ReproError):
    """A ``.ctg`` graph-store operation failed (see :mod:`repro.store`)."""


class StoreFormatError(StoreError, ValueError):
    """A ``.ctg`` file is not a well-formed ``rfid-ctg/ctg@1`` payload.

    Covers a wrong magic, an unsupported version, a truncated file, and
    any section whose offsets or counts fall outside the payload — every
    structural defect :func:`repro.store.load_ctg` detects before it hands
    out array views.  Also derives from :class:`ValueError` for callers
    that treat malformed inputs generically.
    """


class StoreChecksumError(StoreError):
    """A ``.ctg`` payload does not match its recorded CRC-32 checksum.

    Raised only when a load explicitly opts into payload verification
    (``load_ctg(path, verify=True)``) — structurally valid but bit-rotted
    files are otherwise indistinguishable from good ones.
    """


class GraphExportError(ReproError, TypeError):
    """An object that is not a ct-graph was handed to a graph exporter.

    The :mod:`repro.io.graphs` functions are typed per graph form
    (``ctgraph_to_dict`` wants the node form, ``flatgraph_to_dict`` the
    columnar form); passing the wrong one raises this instead of an
    incidental ``AttributeError`` deep inside the traversal.  Also derives
    from :class:`TypeError` for callers that treat bad inputs generically.
    """
