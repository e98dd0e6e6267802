"""The multi-object cleaning runtime: ``clean_many`` / :class:`BatchCleaner`.

Algorithm 1 cleans one object; real deployments clean fleets.  Cleaning is
embarrassingly parallel across tags — objects share nothing but the
constraint set — so the batch runtime fans a collection of l-sequences (or
raw reading sequences plus a prior) across a ``ProcessPoolExecutor``:

>>> from repro.runtime import clean_many
>>> result = clean_many(lsequences, constraints, workers=4)   # doctest: +SKIP
>>> result[0].graph                                           # doctest: +SKIP

Guarantees, all pinned by tests:

* **determinism** — outcomes come back in input order, and every graph is
  path-for-path probability-identical to a sequential
  :func:`~repro.core.algorithm.build_ct_graph` run on the same object
  (workers only move where the arithmetic happens, never what it is);
* **failure isolation, per object — never per batch**:

  - a :class:`~repro.errors.ReproError` raised for one object (typically
    :class:`~repro.errors.ZeroMassError`) becomes that object's
    :class:`BatchOutcome`;
  - a *worker crash* (segfault, OOM kill, ``os._exit``) breaks the pool —
    the runtime respawns it, re-drives only the unfinished work, bisects
    the suspect tasks to isolate the object that keeps killing workers,
    and quarantines it as a ``WorkerCrashError`` outcome after
    ``max_retries`` re-attempts, its chunk-mates retried and unharmed;
  - with ``timeout_seconds`` set, an object whose worker misses the
    per-object wall-clock deadline is recorded as a
    ``CleaningTimeoutError`` outcome; the stuck worker is reclaimed and
    sibling objects are re-driven, not killed.

  Non-domain exceptions *raised inside a surviving worker* (genuine bugs)
  still propagate and abort;
* **shared precomputation** — each worker process keeps one
  :class:`~repro.runtime.plan.SharedCleaningPlan` per distinct constraint
  set: the compact engine's transition rows are cached across objects
  and the analyzer pre-check's static rules run once — in the parent, so
  pool respawns never repeat them;
* **debuggability** — ``workers=1`` runs the exact same code path in
  process (no executor, no pickling), so breakpoints and profilers work.
  Requesting ``timeout_seconds`` opts out of the in-process path (a
  deadline needs a supervisor outside the stuck process).
"""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.algorithm import CleaningOptions, CleaningStats, build_ct_graph
from repro.core.constraints import ConstraintSet
from repro.core.ctgraph import CTGraph
from repro.core.flatgraph import FlatCTGraph
from repro.core.lsequence import LSequence, ReadingSequence
from repro.errors import (
    BatchConfigurationError,
    CleaningTimeoutError,
    ReadingSequenceError,
    ReproError,
    WorkerCrashError,
)
from repro.queries.ql import QueryResult, execute as _execute_statement
from repro.queries.session import QuerySession
from repro.runtime.plan import QueryPlan, SharedCleaningPlan
from repro.store.format import load_ctg
from repro.store.graphstore import GraphStore

__all__ = ["BatchOutcome", "BatchResult", "BatchCleaner", "clean_many"]

#: Either materialised form a batch outcome can carry.
GraphLike = Union[CTGraph, FlatCTGraph]

#: What the batch accepts per object: an interpreted l-sequence, or raw
#: readings (interpreted in the worker through the cleaner's ``prior``).
SequenceLike = Union[LSequence, ReadingSequence]


@dataclass(frozen=True)
class BatchOutcome:
    """The result of cleaning one object of a batch.

    Failed outcomes carry the exception's class name and message rather
    than the exception object — stable under pickling and enough to triage
    (``rfid-ctg analyze`` locates a contradiction; ``WorkerCrashError`` /
    ``CleaningTimeoutError`` name the runtime-level faults).  Successful
    outcomes carry the graph (node or flat form, per
    ``CleaningOptions.materialize``) — unless the batch ran with a
    :class:`~repro.runtime.plan.QueryPlan` that discards graphs, in which
    case ``queries`` holds the per-statement results and ``graph`` is
    ``None`` by design (``ok`` is therefore defined by the *absence of an
    error*, not by the presence of a graph).
    """

    index: int
    graph: Optional[GraphLike] = None
    error_type: Optional[str] = None
    error: Optional[str] = None
    seconds: float = 0.0
    #: Per-statement results of the batch's ``QueryPlan`` (``None`` when
    #: the batch ran without one, or for failed outcomes).
    queries: Optional[Tuple[QueryResult, ...]] = None
    #: Where this object's ``.ctg`` entry lives when the batch ran with a
    #: :class:`~repro.store.GraphStore` (``None`` otherwise).  Workers
    #: ship only this path back; the parent re-opens it as an mmap view.
    ctg_path: Optional[str] = None
    #: Whether the store already held the entry (no cleaning ran).
    cache_hit: bool = False

    @property
    def ok(self) -> bool:
        return self.error_type is None

    @property
    def stats(self) -> Optional[CleaningStats]:
        """The construction counters (``None`` for failed outcomes)."""
        return self.graph.stats if self.graph is not None else None


@dataclass(frozen=True)
class BatchResult:
    """All outcomes of one batch run, in input order."""

    outcomes: Tuple[BatchOutcome, ...]
    wall_seconds: float
    workers: int
    chunk_size: int
    #: How many times the worker pool had to be rebuilt (crashes and
    #: timeout reclaims); 0 on a healthy run.
    respawns: int = 0

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self) -> Iterator[BatchOutcome]:
        return iter(self.outcomes)

    def __getitem__(self, index: int) -> BatchOutcome:
        return self.outcomes[index]

    @property
    def graphs(self) -> Tuple[Optional[GraphLike], ...]:
        """Per-object graphs, ``None`` where cleaning failed (or where a
        graph-discarding :class:`~repro.runtime.plan.QueryPlan` ran)."""
        return tuple(outcome.graph for outcome in self.outcomes)

    @property
    def failures(self) -> Tuple[BatchOutcome, ...]:
        return tuple(o for o in self.outcomes if not o.ok)

    @property
    def cleaned(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def compute_seconds(self) -> float:
        """Summed per-object cleaning time (compare with ``wall_seconds``)."""
        return sum(outcome.seconds for outcome in self.outcomes)

    def aggregate_stats(self) -> CleaningStats:
        """Summed :class:`CleaningStats` over the successful outcomes.

        Iterates ``dataclasses.fields`` so a counter added to
        :class:`CleaningStats` later is aggregated automatically instead of
        silently dropped (a test sums every field to pin this).
        """
        total = CleaningStats()
        for outcome in self.outcomes:
            stats = outcome.stats
            if stats is None:
                continue
            for field in dataclasses.fields(CleaningStats):
                setattr(total, field.name,
                        getattr(total, field.name) + getattr(stats, field.name))
        return total

    def __repr__(self) -> str:
        return (f"BatchResult(objects={len(self.outcomes)}, "
                f"cleaned={self.cleaned}, failed={len(self.failures)}, "
                f"workers={self.workers}, wall={self.wall_seconds:.3f}s)")


# ----------------------------------------------------------------------
# worker-process machinery (module level so it pickles by reference)
# ----------------------------------------------------------------------

#: One task: ``(input index, constraint-table key, sequence)``.
_Task = Tuple[int, int, SequenceLike]

#: Per-process state installed by the pool initializer: the plans (one per
#: distinct constraint set), the options, the optional prior, the
#: optional query plan, and the optional graph store.
_worker_state: Optional[Tuple[Dict[int, SharedCleaningPlan],
                              CleaningOptions, Optional[object],
                              Optional[QueryPlan], Optional[object]]] = None


def _init_worker(table: Dict[int, ConstraintSet], options: CleaningOptions,
                 prior: Optional[object], static_checked: bool,
                 query_plan: Optional[QueryPlan],
                 store: Optional[object] = None) -> None:
    global _worker_state
    _worker_state = ({key: SharedCleaningPlan(constraints,
                                              static_checked=static_checked)
                      for key, constraints in table.items()},
                     options, prior, query_plan, store)


def _clean_one_stored(index: int, lsequence: LSequence,
                      plan: SharedCleaningPlan, options: CleaningOptions,
                      query_plan: Optional[QueryPlan], store,
                      started: float) -> BatchOutcome:
    """Store-mode cleaning of one object: consult the cache, write a
    ``.ctg`` segment on a miss, ship only the *path* back to the parent.

    No graph ever crosses the process pipe: a miss is cleaned with
    ``materialize="store"`` (the engine writes its arrays straight into
    the entry's staging file, published atomically), queries run against
    the worker-local mmap view, and the outcome carries ``ctg_path`` for
    the parent to re-open.  A hit skips Algorithm 1 entirely.
    """
    key = store.key_for(lsequence, plan.constraints, options)
    path = store.path_for(key)
    cache_hit = path.exists()
    if not cache_hit:
        temp = store.temp_path_for(key)
        try:
            graph = build_ct_graph(
                lsequence, plan.constraints,
                dataclasses.replace(options, materialize="store",
                                    output=str(temp)),
                plan=plan)
            graph.close()
            store.commit(temp, key)
        except BaseException:
            if temp.exists():
                temp.unlink()
            raise
    queries: Optional[Tuple[QueryResult, ...]] = None
    if query_plan is not None:
        with store.load(key) as graph:
            session = QuerySession(graph)
            queries = tuple(_execute_statement(session, statement)
                            for statement in query_plan.statements)
    return BatchOutcome(index=index, queries=queries,
                        seconds=time.perf_counter() - started,
                        ctg_path=str(path), cache_hit=cache_hit)


def _clean_one(index: int, sequence: SequenceLike,
               plan: SharedCleaningPlan, options: CleaningOptions,
               prior: Optional[object],
               query_plan: Optional[QueryPlan] = None,
               store=None) -> BatchOutcome:
    """Clean one object with the cyclic garbage collector paused.

    The compact engine's flat and store builds create no reference
    cycles, so a collection during them frees nothing.  A node graph's
    ``CTNode`` web is cyclic; it stays collectable, because the
    collector runs again on the first allocations after this returns.
    A collector that was already off is left off, and one that was on
    is re-enabled even when the object fails.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _clean_object(index, sequence, plan, options, prior,
                             query_plan, store)
    finally:
        if enabled:
            gc.enable()


def _clean_object(index: int, sequence: SequenceLike,
                  plan: SharedCleaningPlan, options: CleaningOptions,
                  prior: Optional[object], query_plan: Optional[QueryPlan],
                  store) -> BatchOutcome:
    started = time.perf_counter()
    try:
        if isinstance(sequence, ReadingSequence):
            lsequence = LSequence.from_readings(sequence, prior)
        else:
            lsequence = sequence
        if store is not None:
            return _clean_one_stored(index, lsequence, plan, options,
                                     query_plan, store, started)
        if (query_plan is not None and not query_plan.keep_graphs
                and options.materialize == "auto"):
            # Nobody will see the graph — only the query results travel
            # back — so "auto" resolves to the flat form: the compact
            # engine skips CTNode materialisation and the QuerySession
            # runs on the arrays directly.  An explicit materialize choice
            # is respected (results are identical either way).
            options = dataclasses.replace(options, materialize="flat")
        graph: Optional[GraphLike] = build_ct_graph(
            lsequence, plan.constraints, options, plan=plan)
        queries: Optional[Tuple[QueryResult, ...]] = None
        if query_plan is not None:
            session = QuerySession(graph)
            queries = tuple(_execute_statement(session, statement)
                            for statement in query_plan.statements)
            if not query_plan.keep_graphs:
                graph = None
    except ReproError as error:
        return BatchOutcome(index=index, error_type=type(error).__name__,
                            error=str(error),
                            seconds=time.perf_counter() - started)
    return BatchOutcome(index=index, graph=graph, queries=queries,
                        seconds=time.perf_counter() - started)


def _worker_clean_chunk(chunk: Sequence[_Task]) -> List[BatchOutcome]:
    if _worker_state is None:
        raise RuntimeError("worker initializer did not run")
    plans, options, prior, query_plan, store = _worker_state
    return [_clean_one(index, sequence, plans[key], options, prior,
                       query_plan, store)
            for index, key, sequence in chunk]


def _pool_context(start_method: Optional[str] = None):
    """Prefer ``fork`` (fast, shares the warm interpreter); fall back to
    the platform default where fork is unavailable (e.g. Windows/macOS
    spawn) — the worker entry points are module-level, so both work.  An
    explicit ``start_method`` overrides the preference."""
    if start_method is not None:
        return multiprocessing.get_context(start_method)
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


# ----------------------------------------------------------------------
# the fault-tolerant pool supervisor
# ----------------------------------------------------------------------

@dataclass
class _Flight:
    """One chunk in flight: what was submitted, when, and how."""

    chunk: List[_Task]
    submitted: float
    deadline: Optional[float]
    #: Probe flights are submitted one at a time, so a pool breakage while
    #: one is out implicates exactly this chunk.
    probing: bool


class _PoolSupervisor:
    """Drives task chunks through a respawnable ``ProcessPoolExecutor``.

    The normal path submits chunks ``workers``-and-some deep and collects
    futures as they finish.  Two faults are survived:

    * **pool breakage** (a worker died): every unfinished chunk becomes a
      *suspect* and is re-driven through probe mode — one chunk in flight
      at a time, so a second breakage attributes the crash exactly.  A
      multi-object suspect that crashes is bisected; a single-object
      suspect that crashes counts an attempt against that object and is
      quarantined as ``WorkerCrashError`` once its attempts exceed
      ``max_retries`` (the outcome map doubles as the exclusion list — a
      quarantined object is never resubmitted, so a crash-looper cannot
      cycle the pool forever);
    * **deadline expiry** (``timeout_seconds``): the expired object is
      recorded as ``CleaningTimeoutError``, the pool is torn down (the
      only way to reclaim the stuck worker), and the innocent in-flight
      chunks are re-queued for the fresh pool.

    Re-driving a chunk repeats a pure computation, so survivors stay
    bit-identical to a sequential run no matter how many times their chunk
    was interrupted.
    """

    def __init__(self, *, table: Dict[int, ConstraintSet],
                 options: CleaningOptions, prior: Optional[object],
                 workers: int, timeout_seconds: Optional[float],
                 max_retries: int, context,
                 static_checked: bool,
                 query_plan: Optional[QueryPlan] = None,
                 store: Optional[object] = None) -> None:
        self.table = table
        self.options = options
        self.prior = prior
        self.workers = workers
        self.timeout_seconds = timeout_seconds
        self.max_retries = max_retries
        self.context = context
        self.static_checked = static_checked
        self.query_plan = query_plan
        self.store = store
        self.respawns = 0
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- pool lifecycle ------------------------------------------------
    def _spawn(self) -> None:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=self.context,
                initializer=_init_worker,
                initargs=(self.table, self.options, self.prior,
                          self.static_checked, self.query_plan, self.store))

    def _discard(self, kill: bool) -> None:
        """Drop the current pool; ``kill`` terminates still-busy workers
        (required to reclaim a stuck one — a broken pool's are already
        dead)."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        if kill:
            for process in processes:
                if process.is_alive():
                    process.terminate()
            for process in processes:
                process.join(timeout=2.0)

    def close(self) -> None:
        self._discard(kill=True)

    # -- submission ----------------------------------------------------
    def _submit(self, chunk: List[_Task],
                inflight: Dict[Future, _Flight], probing: bool) -> bool:
        """Submit one chunk; ``False`` when the pool broke under us (the
        chunk is untouched and the caller re-queues it as a suspect)."""
        self._spawn()
        now = time.monotonic()
        deadline = (None if self.timeout_seconds is None
                    else now + self.timeout_seconds)
        try:
            future = self._pool.submit(_worker_clean_chunk, chunk)
        except BrokenProcessPool:
            return False
        inflight[future] = _Flight(chunk=chunk, submitted=now,
                                   deadline=deadline, probing=probing)
        return True

    def _fill(self, queue: Deque[List[_Task]], probes: Deque[List[_Task]],
              inflight: Dict[Future, _Flight]) -> None:
        if probes:
            # Probe mode: exactly one outstanding future, and the normal
            # queue waits — attribution before throughput.
            if not inflight:
                chunk = probes.popleft()
                if not self._submit(chunk, inflight, probing=True):
                    probes.appendleft(chunk)
                    self._note_respawn(kill=False)
            return
        # With deadlines enforced, keep exactly ``workers`` in flight so a
        # task's clock starts ticking when its worker actually does.
        limit = (self.workers if self.timeout_seconds is not None
                 else self.workers * 2)
        while queue and len(inflight) < limit:
            chunk = queue.popleft()
            if not self._submit(chunk, inflight, probing=False):
                probes.appendleft(chunk)
                self._suspect_all(inflight, probes)
                self._note_respawn(kill=False)
                return

    def _note_respawn(self, kill: bool) -> None:
        self._discard(kill=kill)
        self.respawns += 1

    # -- fault handling ------------------------------------------------
    def _suspect_all(self, inflight: Dict[Future, _Flight],
                     probes: Deque[List[_Task]]) -> None:
        """Everything still in flight died with the pool; probe it all."""
        for flight in inflight.values():
            probes.append(flight.chunk)
        inflight.clear()

    def _on_crash(self, broken: List[_Flight],
                  inflight: Dict[Future, _Flight],
                  probes: Deque[List[_Task]],
                  attempts: Dict[int, int],
                  outcomes: Dict[int, BatchOutcome]) -> None:
        self._suspect_all(inflight, probes)
        for flight in broken:
            chunk = flight.chunk
            if not flight.probing:
                # Crash in the parallel phase: any in-flight chunk could be
                # at fault, so this one joins the probe queue unblamed.
                probes.append(chunk)
            elif len(chunk) > 1:
                # A probed multi-object chunk crashed: bisect so the
                # innocent chunk-mates are retried apart from the poison.
                mid = len(chunk) // 2
                probes.appendleft(chunk[mid:])
                probes.appendleft(chunk[:mid])
            else:
                # A probed singleton crashed: the culprit is known exactly.
                index = chunk[0][0]
                attempts[index] = attempts.get(index, 0) + 1
                if attempts[index] > self.max_retries:
                    elapsed = time.monotonic() - flight.submitted
                    error = WorkerCrashError(
                        f"object {index}: the worker process cleaning it "
                        f"died {attempts[index]} time(s) "
                        f"(max_retries={self.max_retries}); the object is "
                        "quarantined and the rest of the batch continues")
                    outcomes[index] = BatchOutcome(
                        index=index, error_type=type(error).__name__,
                        error=str(error), seconds=elapsed)
                else:
                    probes.appendleft(chunk)
        self._note_respawn(kill=False)

    def _expire(self, inflight: Dict[Future, _Flight],
                queue: Deque[List[_Task]], probes: Deque[List[_Task]],
                outcomes: Dict[int, BatchOutcome]) -> None:
        if self.timeout_seconds is None or not inflight:
            return
        now = time.monotonic()
        expired = [flight for future, flight in inflight.items()
                   if not future.done()
                   and flight.deadline is not None and now >= flight.deadline]
        if not expired:
            return
        for flight in expired:
            # Deadlines imply chunk_size 1, so an expired chunk is one
            # object (asserted where chunks are cut).
            for index, _key, _sequence in flight.chunk:
                error = CleaningTimeoutError(
                    f"object {index} exceeded the per-object wall-clock "
                    f"budget of {self.timeout_seconds:g}s and was abandoned"
                    " (its worker was reclaimed; sibling objects are "
                    "unaffected)")
                outcomes[index] = BatchOutcome(
                    index=index, error_type=type(error).__name__,
                    error=str(error), seconds=now - flight.submitted)
        expired_ids = {id(flight) for flight in expired}
        # Reclaiming the stuck worker costs the whole pool; salvage what
        # already finished and re-queue the innocent rest for the respawn.
        for future, flight in inflight.items():
            if id(flight) in expired_ids:
                continue
            if future.done():
                try:
                    for outcome in future.result():
                        outcomes[outcome.index] = outcome
                    continue
                except BrokenProcessPool:
                    pass
            (probes if flight.probing else queue).appendleft(flight.chunk)
        inflight.clear()
        self._note_respawn(kill=True)

    # -- the drive loop ------------------------------------------------
    def _tick(self, inflight: Dict[Future, _Flight]) -> Optional[float]:
        deadlines = [flight.deadline for flight in inflight.values()
                     if flight.deadline is not None]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - time.monotonic())

    def run(self, chunks: Sequence[List[_Task]]) -> Dict[int, BatchOutcome]:
        outcomes: Dict[int, BatchOutcome] = {}
        queue: Deque[List[_Task]] = deque(chunks)
        probes: Deque[List[_Task]] = deque()
        inflight: Dict[Future, _Flight] = {}
        attempts: Dict[int, int] = {}
        while queue or probes or inflight:
            self._fill(queue, probes, inflight)
            if not inflight:
                continue
            done, _ = wait(set(inflight), timeout=self._tick(inflight),
                           return_when=FIRST_COMPLETED)
            broken: List[_Flight] = []
            for future in done:
                flight = inflight.pop(future)
                try:
                    for outcome in future.result():
                        outcomes[outcome.index] = outcome
                except BrokenProcessPool:
                    broken.append(flight)
            if broken:
                self._on_crash(broken, inflight, probes, attempts, outcomes)
                continue
            self._expire(inflight, queue, probes, outcomes)
        return outcomes


# ----------------------------------------------------------------------
# the public runtime
# ----------------------------------------------------------------------
class BatchCleaner:
    """A configured multi-object cleaning runtime.

    ``constraints`` is one :class:`ConstraintSet` shared by every object,
    or a per-object sequence of constraint sets (precomputation is shared
    per *distinct* set either way).  ``workers`` is the process count —
    ``1`` (the default) cleans in process, ``None`` uses the machine's CPU
    count.  ``chunk_size`` is how many objects each worker claims at a
    time (default: batch size / (4 x workers), floored at 1 — small enough
    to balance load, big enough to amortise task pickling).  ``prior`` is
    required when raw :class:`ReadingSequence` objects are submitted; it
    is shipped to each worker once, and the readings -> l-sequence
    interpretation happens in the workers too.

    Fault tolerance (see ``docs/runtime.md`` for the full semantics):
    ``timeout_seconds`` is an optional per-object wall-clock budget,
    enforced by the parent via future deadlines (setting it forces
    ``chunk_size`` to 1 and the pool path, even for ``workers=1``);
    ``max_retries`` caps how often an object whose worker *crashed* is
    re-attempted before it is quarantined as a ``WorkerCrashError``
    outcome; ``start_method`` pins the multiprocessing start method
    (default: prefer ``fork``, else the platform default).
    """

    def __init__(self, constraints: Union[ConstraintSet,
                                          Sequence[ConstraintSet]], *,
                 options: CleaningOptions = CleaningOptions(),
                 workers: Optional[int] = 1,
                 chunk_size: Optional[int] = None,
                 prior: Optional[object] = None,
                 timeout_seconds: Optional[float] = None,
                 max_retries: int = 1,
                 start_method: Optional[str] = None,
                 query_plan: Optional[QueryPlan] = None,
                 store: Optional[GraphStore] = None) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise BatchConfigurationError(
                f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise BatchConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}")
        if timeout_seconds is not None and not timeout_seconds > 0:
            raise BatchConfigurationError(
                f"timeout_seconds must be > 0, got {timeout_seconds}")
        if max_retries < 0:
            raise BatchConfigurationError(
                f"max_retries must be >= 0, got {max_retries}")
        if (start_method is not None
                and start_method not in multiprocessing.get_all_start_methods()):
            raise BatchConfigurationError(
                f"start method {start_method!r} unavailable here; choose "
                f"from {multiprocessing.get_all_start_methods()}")
        if query_plan is not None and not isinstance(query_plan, QueryPlan):
            raise BatchConfigurationError(
                f"query_plan must be a QueryPlan, got "
                f"{type(query_plan).__name__}")
        if store is not None:
            if not isinstance(store, GraphStore):
                raise BatchConfigurationError(
                    f"store must be a GraphStore, got "
                    f"{type(store).__name__}")
            if options.materialize == "nodes":
                raise BatchConfigurationError(
                    "store= persists flat .ctg entries; "
                    'materialize="nodes" cannot be combined with it')
            if options.output is not None:
                raise BatchConfigurationError(
                    "store= chooses each object's .ctg path by content "
                    "key; it cannot be combined with options.output")
        self._constraints = constraints
        self.store = store
        self.query_plan = query_plan
        self.options = options
        self.workers = workers
        self.chunk_size = chunk_size
        self.prior = prior
        self.timeout_seconds = timeout_seconds
        self.max_retries = max_retries
        self.start_method = start_method

    def _tasks(self, sequences: Sequence[SequenceLike]
               ) -> Tuple[List[_Task], Dict[int, ConstraintSet]]:
        """Pair every sequence with its constraint-table key.

        Distinct constraint sets are interned (``ConstraintSet.__eq__``
        compares the stated constraints), so ten objects under two sets
        yield a two-entry table and two shared plans per worker.
        """
        if isinstance(self._constraints, ConstraintSet):
            per_object: Sequence[ConstraintSet] = \
                [self._constraints] * len(sequences)
        else:
            per_object = list(self._constraints)
            if len(per_object) != len(sequences):
                raise BatchConfigurationError(
                    f"{len(sequences)} sequences but {len(per_object)} "
                    "constraint sets; pass one set, or one per object")
        table: Dict[int, ConstraintSet] = {}
        keys: Dict[ConstraintSet, int] = {}
        tasks: List[_Task] = []
        for index, (sequence, constraints) in enumerate(
                zip(sequences, per_object)):
            if isinstance(sequence, ReadingSequence) and self.prior is None:
                raise ReadingSequenceError(
                    f"object {index} is a raw ReadingSequence but the "
                    "cleaner has no prior; pass prior=... to interpret it")
            key = keys.get(constraints)
            if key is None:
                key = len(table)
                keys[constraints] = key
                table[key] = constraints
            tasks.append((index, key, sequence))
        return tasks, table

    def clean(self, sequences: Sequence[SequenceLike]) -> BatchResult:
        """Clean every object; outcomes return in input order."""
        sequences = list(sequences)
        started = time.perf_counter()
        tasks, table = self._tasks(sequences)
        workers = min(self.workers, max(1, len(tasks)))
        if self.timeout_seconds is not None:
            # Per-object deadlines need per-object tasks (and a process to
            # supervise, so the pool path runs even for workers=1).
            chunk = 1
        else:
            chunk = self.chunk_size
            if chunk is None:
                chunk = max(1, len(tasks) // (workers * 4))
        respawns = 0
        if workers == 1 and self.timeout_seconds is None:
            plans = {key: SharedCleaningPlan(constraints)
                     for key, constraints in table.items()}
            outcomes = [_clean_one(index, sequence, plans[key],
                                   self.options, self.prior,
                                   self.query_plan, self.store)
                        for index, key, sequence in tasks]
        else:
            static_checked = False
            if self.options.precheck != "off":
                # Run the constraints-only analysis once, here in the
                # parent: its warnings surface exactly once per distinct
                # set, and respawned pools never repeat the work.
                for constraints in table.values():
                    SharedCleaningPlan(constraints).ensure_static_checked()
                static_checked = True
            chunks = [list(tasks[at:at + chunk])
                      for at in range(0, len(tasks), chunk)]
            supervisor = _PoolSupervisor(
                table=table, options=self.options, prior=self.prior,
                workers=workers, timeout_seconds=self.timeout_seconds,
                max_retries=self.max_retries,
                context=_pool_context(self.start_method),
                static_checked=static_checked,
                query_plan=self.query_plan, store=self.store)
            try:
                by_index = supervisor.run(chunks)
            finally:
                supervisor.close()
            respawns = supervisor.respawns
            if len(by_index) != len(tasks):   # pragma: no cover - invariant
                missing = sorted(set(range(len(tasks))) - set(by_index))
                raise RuntimeError(
                    f"batch supervisor lost outcomes for objects {missing}")
            outcomes = [by_index[index] for index in range(len(tasks))]
        if self.store is not None:
            # The workers consulted the store's directory, not this
            # instance; fold their per-outcome verdicts into its counters.
            for outcome in outcomes:
                if outcome.ok and outcome.ctg_path is not None:
                    if outcome.cache_hit:
                        self.store.hits += 1
                    else:
                        self.store.misses += 1
        if self.store is not None and (self.query_plan is None
                                       or self.query_plan.keep_graphs):
            # Workers shipped paths, not graphs: re-open every entry as a
            # zero-copy mmap view in the parent.
            outcomes = [
                dataclasses.replace(
                    outcome,
                    graph=load_ctg(outcome.ctg_path, mmap=self.store.mmap))
                if outcome.ok and outcome.ctg_path is not None else outcome
                for outcome in outcomes]
        return BatchResult(outcomes=tuple(outcomes),
                           wall_seconds=time.perf_counter() - started,
                           workers=workers, chunk_size=chunk,
                           respawns=respawns)


def clean_many(sequences: Sequence[SequenceLike],
               constraints: Union[ConstraintSet, Sequence[ConstraintSet]], *,
               options: CleaningOptions = CleaningOptions(),
               workers: Optional[int] = 1,
               chunk_size: Optional[int] = None,
               prior: Optional[object] = None,
               timeout_seconds: Optional[float] = None,
               max_retries: int = 1,
               start_method: Optional[str] = None,
               query_plan: Optional[QueryPlan] = None,
               store: Optional[GraphStore] = None) -> BatchResult:
    """Clean a collection of objects, optionally across worker processes.

    The one-call form of :class:`BatchCleaner` — see its docstring for the
    parameter semantics and the module docstring for the guarantees.
    ``query_plan`` runs :mod:`repro.queries.ql` statements against every
    graph inside the workers (see :class:`~repro.runtime.plan.QueryPlan`) —
    the way to get marginals or MAP paths out of a big batch without
    shipping every graph back through pickling.  ``store`` routes every
    outcome through a :class:`~repro.store.GraphStore`: workers write
    ``.ctg`` entries (cache hits skip cleaning entirely) and return only
    paths over the pipe; the parent re-opens each entry as an mmap-backed
    view, so no graph is ever pickled.  ``outcome.cache_hit`` and
    ``outcome.ctg_path`` record the store interaction.
    """
    cleaner = BatchCleaner(constraints, options=options, workers=workers,
                           chunk_size=chunk_size, prior=prior,
                           timeout_seconds=timeout_seconds,
                           max_retries=max_retries, start_method=start_method,
                           query_plan=query_plan, store=store)
    return cleaner.clean(sequences)
