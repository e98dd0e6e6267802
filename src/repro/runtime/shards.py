"""Sharded multi-process streaming: ``rfid-ctg serve --shards N``.

One :class:`~repro.runtime.sessions.StreamSessionManager` hosts a fleet
in a single process; this module partitions the fleet across worker
processes the way Cao et al.'s distributed RFID tracking partitions tags
across inference workers.  Two pieces:

* :class:`ServeEngine` — the per-reading serve logic (resume skipping,
  drop lines, live estimates, stats) factored out of the CLI so the
  single-process path and every shard worker run *the same code* on the
  same per-object reading subsequence.  Output lines are returned as
  fully rendered strings, which is what makes sharded output
  byte-identical to ``--shards 1`` by construction.

* :class:`StreamShardPool` — the parent side: objects are routed to
  workers by a stable hash of the object id (so a resumed fleet lands on
  the same shards), each worker owns its own session manager and a
  ``shard-NN`` checkpoint subdirectory, and every dispatched reading
  carries a global sequence number.  Replies are reorder-buffered and
  flushed in sequence order, so stdout comes out exactly as the
  single-process loop would have produced it.  Backpressure (a bounded
  in-flight window, further clamped to the remaining ``--max-readings``
  budget) keeps ``--max-readings`` semantics exact: a reading is only
  dispatched while the budget certainly allows processing it.

Kill -> resume works per shard: each worker resumes its own subdirectory
independently, and the ``shards.json`` manifest
(:func:`repro.store.format.ensure_shard_manifest`) refuses a resume
under a different shard count, which would silently find no checkpoints.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import (
    InconsistentReadingsError,
    ReadingSequenceError,
)
from repro.runtime.sessions import StreamSessionManager

__all__ = ["ServeEngine", "StreamShardPool", "parse_reading", "shard_of"]

#: Default per-pool bound on dispatched-but-unanswered readings.
DEFAULT_MAX_INFLIGHT = 256

_SENTINEL = object()


def parse_reading(line: str) -> Optional[Tuple[str, Any]]:
    """One ``serve`` input line as ``(object_id, candidates)``.

    Returns ``None`` for a malformed line: not JSON, not an object with
    ``"object"`` and ``"candidates"`` keys, or an object id that is not
    a string.  The candidates are passed through unchecked —
    :func:`~repro.core.incremental.coerce_candidate_row` turns a bad
    one into a per-object ``dropped`` line.
    """
    try:
        reading = json.loads(line)
        object_id = reading["object"]
        candidates = reading["candidates"]
    except (ValueError, KeyError, TypeError):
        return None
    if not isinstance(object_id, str):
        return None
    return object_id, candidates


def shard_of(object_id: str, shards: int) -> int:
    """The worker index owning ``object_id`` — a stable content hash.

    ``hash()`` is randomized per process, so routing uses SHA-256: the
    same object lands on the same shard in every run, which is what lets
    a killed ``--shards N`` fleet resume with its checkpoints intact.
    """
    digest = hashlib.sha256(object_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


class ServeEngine:
    """The per-reading logic of ``rfid-ctg serve``, output as strings.

    Wraps one :class:`StreamSessionManager` and reproduces the serve
    loop's observable behaviour: readings already covered by a resumed
    checkpoint are skipped, inconsistent/malformed readings become
    ``dropped`` lines with the session intact, and every
    ``estimate_every``-th reading of an object emits a live estimate
    line.  With ``stats_every > 0`` it additionally emits per-object
    throughput/frontier/checkpoint-lag lines (stderr plane) and attaches
    a ``stats`` block to the final summaries.  stdout lines are rendered
    here (``json.dumps(..., sort_keys=True)``) so every caller — the
    single-process CLI loop and each shard worker — produces identical
    bytes for identical readings.
    """

    def __init__(self, manager: StreamSessionManager, *,
                 estimate_every: int = 0, stats_every: int = 0) -> None:
        self.manager = manager
        self.estimate_every = estimate_every
        self.stats_every = stats_every
        self.ingested = 0
        self._seen: Dict[str, int] = {}
        self._resumed_duration = {
            object_id: manager.session(object_id).duration
            for object_id in manager.objects()}
        self._started = time.perf_counter()
        self._object_counts: Dict[str, int] = {}
        self._object_started: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def process(self, object_id: str, candidates: Mapping[str, float],
                ) -> Tuple[bool, List[str], List[str]]:
        """Feed one reading; returns ``(ingested, stdout_lines,
        stderr_lines)``."""
        seen = self._seen.get(object_id, 0) + 1
        self._seen[object_id] = seen
        if seen <= self._resumed_duration.get(object_id, 0):
            return False, [], []
        try:
            estimate = self.manager.ingest(object_id, candidates)
        except (InconsistentReadingsError, ReadingSequenceError) as error:
            return False, [_render({
                "object": object_id, "t": seen - 1,
                "dropped": f"{type(error).__name__}: {error}"})], []
        self.ingested += 1
        out: List[str] = []
        err: List[str] = []
        cleaner = self.manager.session(object_id)
        if self.estimate_every and \
                cleaner.duration % self.estimate_every == 0:
            out.append(_render({"object": object_id,
                                "t": cleaner.duration - 1,
                                "estimate": estimate}))
        if self.stats_every:
            now = time.perf_counter()
            count = self._object_counts.get(object_id, 0) + 1
            self._object_counts[object_id] = count
            started = self._object_started.setdefault(object_id, now)
            if count % self.stats_every == 0:
                rate = _rate(count, now - started)
                err.append(
                    f"serve: stats object={object_id} "
                    f"t={cleaner.duration - 1} "
                    f"readings_per_s={_fmt_rate(rate)} "
                    f"frontier_states={cleaner.frontier_size()} "
                    f"checkpoint_lag="
                    f"{self.manager.checkpoint_lag(object_id)}")
        return True, out, err

    # ------------------------------------------------------------------
    def final_entries(self) -> List[Tuple[str, str]]:
        """The per-object final summary lines, as ``(object_id, line)``
        sorted by object id (a shard merge re-sorts the concatenation)."""
        entries: List[Tuple[str, str]] = []
        for object_id in sorted(self.manager.objects()):
            cleaner = self.manager.session(object_id)
            if cleaner.duration == 0:
                continue
            payload = {"object": object_id, "final": True,
                       "duration": cleaner.duration, "base": cleaner.base,
                       "frontier_states": cleaner.frontier_size(),
                       "estimate": cleaner.filtered_distribution()}
            if self.stats_every:
                count = self._object_counts.get(object_id, 0)
                elapsed = (time.perf_counter()
                           - self._object_started.get(object_id,
                                                      self._started))
                payload["stats"] = {
                    "ingested": count,
                    "readings_per_s": _rate(count, elapsed),
                    "checkpoint_lag":
                        self.manager.checkpoint_lag(object_id)}
            entries.append((object_id, _render(payload)))
        return entries

    def summary_line(self, label: str) -> str:
        """One fleet/shard throughput line for the stderr stats plane."""
        elapsed = time.perf_counter() - self._started
        rate = _rate(self.ingested, elapsed)
        return (f"serve: stats {label} objects={len(self.manager.objects())} "
                f"ingested={self.ingested} "
                f"readings_per_s={_fmt_rate(rate)}")

    def checkpoint_entries(self) -> List[Tuple[str, str]]:
        """Checkpoint every hosted object; ``(object_id, path)`` sorted."""
        return [(object_id, str(path)) for object_id, path
                in sorted(self.manager.checkpoint_all().items())]


def _render(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def _rate(count: int, elapsed: float) -> Optional[float]:
    return count / elapsed if elapsed > 0.0 and count else None


def _fmt_rate(rate: Optional[float]) -> str:
    return "n/a" if rate is None else f"{rate:.1f}"


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _shard_worker_main(shard_index: int, inbox, outbox,
                       config: Dict) -> None:
    """One shard: own session manager, own checkpoints, serve loop body.

    Protocol (all tuples): receives ``("reading", seq, object_id,
    candidates)``, ``("finals",)``, ``("summary",)``, ``("checkpoint",)``
    and ``("stop",)``; answers with ``("ready", ...)`` once constructed,
    ``("result", shard, seq, ingested, out_lines, err_lines)`` per
    reading, the corresponding ``("finals"/"summary"/"checkpointed",
    shard, payload)`` replies, and ``("fatal", shard, traceback)`` on any
    unexpected error (the parent escalates it).
    """
    try:
        from repro.core.algorithm import CleaningOptions
        from repro.io.jsonio import load_constraints

        constraints = load_constraints(config["constraints_file"])
        manager = StreamSessionManager(
            constraints, window=config["window"],
            options=CleaningOptions(backend=config["backend"]),
            checkpoint_dir=config["checkpoint_dir"],
            checkpoint_every=config["checkpoint_every"],
            resume=config["resume"])
        engine = ServeEngine(manager,
                             estimate_every=config["estimate_every"],
                             stats_every=config["stats_every"])
        outbox.put(("ready", shard_index, len(manager.objects())))
        while True:
            message = inbox.get()
            kind = message[0]
            if kind == "reading":
                _, seq, object_id, candidates = message
                ingested, out_lines, err_lines = engine.process(
                    object_id, candidates)
                outbox.put(("result", shard_index, seq, ingested,
                            out_lines, err_lines))
            elif kind == "finals":
                outbox.put(("finals", shard_index,
                            engine.final_entries()))
            elif kind == "summary":
                outbox.put(("summary", shard_index,
                            engine.summary_line(
                                f"shard={shard_index}")))
            elif kind == "checkpoint":
                outbox.put(("checkpointed", shard_index,
                            engine.checkpoint_entries()))
            elif kind == "stop":
                return
    except BaseException:
        outbox.put(("fatal", shard_index, traceback.format_exc()))


class StreamShardPool:
    """Partition a serve fleet across worker processes, merge in order.

    Construct, :meth:`start`, then :meth:`serve` the reading lines and
    :meth:`finish`; use as a context manager to guarantee the workers
    are reaped.  See the module docstring for the ordering and
    ``--max-readings`` guarantees.
    """

    def __init__(self, shards: int, *, constraints_file: str,
                 window: int, checkpoint_dir: Optional[str] = None,
                 checkpoint_every: int = 0, resume: bool = False,
                 estimate_every: int = 0, stats_every: int = 0,
                 backend: str = "python",
                 max_inflight: int = DEFAULT_MAX_INFLIGHT) -> None:
        if shards < 2:
            raise ReadingSequenceError(
                f"StreamShardPool needs at least 2 shards, got {shards} "
                "(run the single-process path instead)")
        self.shards = shards
        self.max_inflight = max_inflight
        self._config = {
            "constraints_file": constraints_file,
            "window": window,
            "checkpoint_every": checkpoint_every,
            "resume": resume,
            "estimate_every": estimate_every,
            "stats_every": stats_every,
            "backend": backend,
        }
        self._checkpoint_dir = checkpoint_dir
        self._stats_every = stats_every
        self._processes: List = []
        self._inboxes: List = []
        self._outbox = None
        self._context = None

    # ------------------------------------------------------------------
    def shard_checkpoint_dir(self, shard_index: int) -> Optional[str]:
        """Where shard ``shard_index`` keeps its checkpoints."""
        if self._checkpoint_dir is None:
            return None
        import os

        return os.path.join(self._checkpoint_dir,
                            f"shard-{shard_index:02d}")

    def start(self) -> None:
        """Spawn the workers and wait until every shard is ready.

        A shard that fails to construct (e.g. a resume under a foreign
        constraint set) surfaces here as the worker's own exception
        text, wrapped in :class:`~repro.errors.ReadingSequenceError`.
        """
        import multiprocessing

        self._context = multiprocessing.get_context("spawn")
        self._outbox = self._context.Queue()
        for index in range(self.shards):
            config = dict(self._config)
            config["checkpoint_dir"] = self.shard_checkpoint_dir(index)
            inbox = self._context.Queue()
            process = self._context.Process(
                target=_shard_worker_main,
                args=(index, inbox, self._outbox, config),
                daemon=True)
            process.start()
            self._inboxes.append(inbox)
            self._processes.append(process)
        ready = 0
        while ready < self.shards:
            message = self._receive()
            if message[0] == "ready":
                ready += 1

    def __enter__(self) -> "StreamShardPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def serve(self, lines: Iterable[str], out, err, *,
              max_readings: Optional[int] = None) -> int:
        """Pump reading lines through the shards; returns readings
        ingested.

        ``out``/``err`` are write targets with a ``write`` method (the
        CLI passes ``sys.stdout``/``sys.stderr``).  stdout lines are
        flushed in global dispatch order, so the merged stream is
        byte-identical to the single-process loop over the same input.
        """
        pending: Dict[int, Tuple[List[str], List[str]]] = {}
        state = {"inflight": 0, "ingested": 0, "next_flush": 0}

        def handle(message) -> None:
            kind = message[0]
            if kind == "result":
                _, _, seq, ingested, out_lines, err_lines = message
                state["inflight"] -= 1
                state["ingested"] += bool(ingested)
                pending[seq] = (out_lines, err_lines)

        def flush() -> None:
            while state["next_flush"] in pending:
                out_lines, err_lines = pending.pop(state["next_flush"])
                for line in out_lines:
                    out.write(line + "\n")
                for line in err_lines:
                    err.write(line + "\n")
                state["next_flush"] += 1
            if hasattr(out, "flush"):
                out.flush()

        iterator = iter(lines)
        next_seq = 0
        stopped = False
        while not stopped:
            # Dispatch gate: wait until the in-flight window has room
            # AND the remaining --max-readings budget certainly covers
            # one more reading (every in-flight one might be ingested).
            while True:
                remaining = (None if max_readings is None
                             else max_readings - state["ingested"])
                if remaining is not None and remaining <= 0:
                    stopped = True
                    break
                if state["inflight"] < self.max_inflight and \
                        (remaining is None
                         or state["inflight"] < remaining):
                    break
                handle(self._receive())
                flush()
            if stopped:
                break
            raw = next(iterator, _SENTINEL)
            if raw is _SENTINEL:
                break
            line = raw.strip()
            if not line:
                continue
            reading = parse_reading(line)
            if reading is None:
                err.write(
                    f"serve: skipping malformed line: {line[:120]}\n")
                continue
            object_id, candidates = reading
            self._inboxes[shard_of(object_id, self.shards)].put(
                ("reading", next_seq, object_id, candidates))
            next_seq += 1
            state["inflight"] += 1
            while True:
                message = self._receive(block=False)
                if message is None:
                    break
                handle(message)
            flush()
        while state["inflight"]:
            handle(self._receive())
            flush()
        return state["ingested"]

    # ------------------------------------------------------------------
    def _broadcast(self, request: Tuple, reply_kind: str) -> List:
        for inbox in self._inboxes:
            inbox.put(request)
        replies: List = [None] * self.shards
        received = 0
        while received < self.shards:
            message = self._receive()
            if message[0] == reply_kind:
                replies[message[1]] = message[2]
                received += 1
        return replies

    def finish(self, out, err, *, final_checkpoint: bool = True) -> None:
        """Emit the merged end-of-stream lines.

        Final summaries (stdout) merge across shards sorted by object
        id — exactly the ``sorted(manager.objects())`` order of the
        single-process loop.  Then per-shard stats summaries (when
        enabled) and checkpoint confirmations, both on stderr.
        """
        finals: List[Tuple[str, str]] = []
        for entries in self._broadcast(("finals",), "finals"):
            finals.extend(entries)
        for _object_id, line in sorted(finals):
            out.write(line + "\n")
        if hasattr(out, "flush"):
            out.flush()
        if self._stats_every:
            for line in self._broadcast(("summary",), "summary"):
                err.write(line + "\n")
        if final_checkpoint and self._checkpoint_dir is not None:
            checkpointed: List[Tuple[str, str]] = []
            for entries in self._broadcast(("checkpoint",),
                                           "checkpointed"):
                checkpointed.extend(entries)
            for object_id, path in sorted(checkpointed):
                err.write(
                    f"serve: checkpointed {object_id!r} -> {path}\n")

    def close(self) -> None:
        """Stop and reap every worker (idempotent)."""
        for inbox in self._inboxes:
            try:
                inbox.put(("stop",))
            except (OSError, ValueError):
                pass
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        self._processes = []
        self._inboxes = []

    # ------------------------------------------------------------------
    def _receive(self, block: bool = True):
        """One message from any worker; escalates worker death/fatals."""
        import queue as _queue

        while True:
            try:
                message = self._outbox.get(block=block, timeout=1.0)
            except _queue.Empty:
                if not block:
                    return None
                for index, process in enumerate(self._processes):
                    if not process.is_alive():
                        raise ReadingSequenceError(
                            f"shard worker {index} died unexpectedly "
                            f"(exit code {process.exitcode})")
                continue
            if message[0] == "fatal":
                raise ReadingSequenceError(
                    f"shard worker {message[1]} failed:\n{message[2]}")
            return message
