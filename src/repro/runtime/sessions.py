"""Multi-object streaming sessions: one process hosting many tags.

The batch runtime (:mod:`repro.runtime.batch`) fans *finished* reading
sequences across workers; this module is its long-lived counterpart: a
:class:`StreamSessionManager` holds one
:class:`~repro.streaming.StreamingCleaner` per monitored object, routes
incoming readings to them, and owns their durable checkpoints — one
``rfid-ctg/ckpt@1`` file per object in a shared directory, written
periodically and resumable after a crash.  ``rfid-ctg serve`` is a thin
CLI shell around this class.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, Mapping, Tuple

from repro.core.algorithm import CleaningOptions
from repro.core.constraints import ConstraintSet
from repro.errors import ReadingSequenceError
from repro.streaming import StreamingCleaner
from repro.streaming.cleaner import DEFAULT_WINDOW

__all__ = ["StreamSessionManager"]


class StreamSessionManager:
    """Route a multiplexed reading stream to per-object streaming cleaners.

    Sessions are created lazily on the first reading of a new object id
    (all with the manager's window/options/prior) and live until the
    manager is dropped.  With a ``checkpoint_dir`` each session persists
    to its own file — named by a digest of the object id, with the id
    itself recorded in the checkpoint meta — either explicitly
    (:meth:`checkpoint`, :meth:`checkpoint_all`) or automatically every
    ``checkpoint_every`` ingested readings.  Constructing with
    ``resume=True`` scans the directory and restores every session found
    there, verifying each was checkpointed under the manager's own
    constraint set (a mismatch raises
    :class:`~repro.errors.ReadingSequenceError` — silently mixing
    constraint sets would poison every estimate that follows).
    """

    def __init__(self, constraints: ConstraintSet, *,
                 window: int = DEFAULT_WINDOW,
                 options: CleaningOptions = CleaningOptions(),
                 prior=None,
                 checkpoint_dir=None,
                 checkpoint_every: int = 0,
                 resume: bool = False) -> None:
        if checkpoint_every < 0:
            raise ReadingSequenceError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}")
        if checkpoint_every and checkpoint_dir is None:
            raise ReadingSequenceError(
                "checkpoint_every needs checkpoint_dir= (somewhere to "
                "write the checkpoints)")
        self.constraints = constraints
        self.window = window
        self.options = options
        self.prior = prior
        self.checkpoint_every = checkpoint_every
        self._checkpoint_dir = (Path(checkpoint_dir)
                                if checkpoint_dir is not None else None)
        self._sessions: Dict[str, StreamingCleaner] = {}
        self._since_checkpoint: Dict[str, int] = {}
        # One FrontierKernel for the whole fleet (the way
        # SharedCleaningPlan shares the engine cache): every session gets
        # the same transition-table cache, so a frontier signature
        # compiled while streaming one object serves every other object.
        self._kernel = None
        if options.backend != "python":
            from repro.core.kernels import FrontierKernel, numpy_available

            if numpy_available():
                self._kernel = FrontierKernel(constraints)
        if resume:
            self._resume_all()

    # ------------------------------------------------------------------
    def _resume_all(self) -> None:
        from repro.store.format import read_stream_checkpoint

        if self._checkpoint_dir is None:
            raise ReadingSequenceError(
                "resume=True needs checkpoint_dir= (where the checkpoints "
                "live)")
        if not self._checkpoint_dir.is_dir():
            return
        for path in sorted(self._checkpoint_dir.glob("*.ckpt")):
            object_id = read_stream_checkpoint(path).meta.get("object")
            if not isinstance(object_id, str):
                raise ReadingSequenceError(
                    f"{path}: checkpoint carries no object id — it was "
                    "not written by a StreamSessionManager")
            cleaner = StreamingCleaner.resume(path, prior=self.prior,
                                              frontier_kernel=self._kernel)
            if cleaner.constraints != self.constraints:
                raise ReadingSequenceError(
                    f"{path}: object {object_id!r} was checkpointed under "
                    "a different constraint set than this manager's — "
                    "resuming it here would mix incompatible sessions")
            self._sessions[object_id] = cleaner

    # ------------------------------------------------------------------
    def objects(self) -> Tuple[str, ...]:
        """The hosted object ids, in first-seen (or resume-scan) order."""
        return tuple(self._sessions)

    @property
    def frontier_kernel(self):
        """The fleet-shared transition-table cache (``None`` when the
        python backend is selected or numpy is unavailable)."""
        return self._kernel

    def session(self, object_id: str) -> StreamingCleaner:
        """The object's cleaner, created on first use."""
        cleaner = self._sessions.get(object_id)
        if cleaner is None:
            cleaner = StreamingCleaner(self.constraints, window=self.window,
                                       options=self.options,
                                       prior=self.prior,
                                       frontier_kernel=self._kernel)
            self._sessions[object_id] = cleaner
        return cleaner

    # ------------------------------------------------------------------
    def ingest(self, object_id: str,
               candidates: Mapping[str, float]) -> Dict[str, float]:
        """Feed one reading to the object's session; return the live estimate.

        Exceptions propagate from
        :meth:`~repro.streaming.StreamingCleaner.extend` with the
        session state unchanged, so the caller may drop the offending
        reading and keep the object alive.
        """
        cleaner = self.session(object_id)
        cleaner.extend(candidates)
        self._after_ingest(object_id)
        return cleaner.filtered_distribution()

    def ingest_reading(self, object_id: str, readers) -> Dict[str, float]:
        """Like :meth:`ingest` with a raw reading (needs the prior)."""
        cleaner = self.session(object_id)
        cleaner.extend_reading(readers)
        self._after_ingest(object_id)
        return cleaner.filtered_distribution()

    def _after_ingest(self, object_id: str) -> None:
        count = self._since_checkpoint.get(object_id, 0) + 1
        if self.checkpoint_every and count >= self.checkpoint_every:
            self.checkpoint(object_id)
            count = 0
        self._since_checkpoint[object_id] = count

    def checkpoint_lag(self, object_id: str) -> int:
        """Readings ingested for the object since its last checkpoint.

        Counted even with automatic checkpointing off (``--stats-every``
        reports it as the data loss a crash right now would cost).
        """
        return self._since_checkpoint.get(object_id, 0)

    # ------------------------------------------------------------------
    def checkpoint_path(self, object_id: str) -> Path:
        """Where the object's checkpoint lives (digest-named, id in meta)."""
        if self._checkpoint_dir is None:
            raise ReadingSequenceError(
                "this manager has no checkpoint_dir")
        digest = hashlib.sha256(object_id.encode("utf-8")).hexdigest()[:24]
        return self._checkpoint_dir / f"{digest}.ckpt"

    def checkpoint(self, object_id: str) -> Path:
        """Checkpoint one object now; returns the file written."""
        cleaner = self._sessions.get(object_id)
        if cleaner is None:
            raise ReadingSequenceError(
                f"unknown object {object_id!r}")
        path = self.checkpoint_path(object_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        cleaner.checkpoint(path, extra_meta={"object": object_id})
        self._since_checkpoint[object_id] = 0
        return path

    def checkpoint_all(self) -> Dict[str, Path]:
        """Checkpoint every hosted object; returns id -> file."""
        return {object_id: self.checkpoint(object_id)
                for object_id in self._sessions}
