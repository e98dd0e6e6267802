"""Outside-in span recorder for the traced benchmark run.

Nothing under ``src/`` is instrumented.  At start-up :func:`install`
replaces a fixed list of the program's public callables with thin
wrappers that open a span on entry and close it on exit, so every call
into a layer shows up with its name, start, end, parent span and the op
it ran under.  Spans stay in memory (parallel lists) and are written
out once, after the timed window.

A layer's *self time* is its span's duration minus the time its direct
child spans cover.  The wrappers nest strictly (one stack, one thread),
so the self times of every span in one op's tree add up to the op's
wall time -- :func:`check_nesting` is the self-test of that claim.

``gc.callbacks`` times the collector's pauses as their own layer.
"""

from __future__ import annotations

import gc
import json
import os
import weakref
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Span name of the benchmark's own op boundary.
OP = "op"


class SpanRecorder:
    """In-memory spans plus per-layer samples, for one process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.ops: List[int] = []
        self._stack: List[int] = []
        self.op_id = -1
        #: ``name -> [(op id, value)]`` recorded at the same boundaries.
        self.samples: Dict[str, List[Tuple[int, float]]] = {}
        self.gc_pause = 0.0
        self.gc_collections = 0
        self._gc_started: Optional[float] = None

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op_id)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of "
                               "order")

    def begin_op(self, op_id: int) -> int:
        self.op_id = op_id
        return self.open(OP)

    def end_op(self, index: int) -> None:
        self.close(index)
        self.op_id = -1

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append((self.op_id, value))

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with every call recorded as a ``name`` span."""
        return _wrap(self, name, function, None)

    def _on_gc(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
        elif self._gc_started is not None:
            self.gc_pause += perf_counter() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None

    def start_gc_timer(self) -> None:
        gc.callbacks.append(self._on_gc)

    def stop_gc_timer(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def durations(self) -> List[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self) -> List[float]:
        """Each span's duration minus its direct children's durations."""
        own = self.durations()
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def coverage(self) -> Tuple[float, float]:
        """``(op wall seconds, seconds covered by layer spans)``."""
        durations = self.durations()
        wall = covered = 0.0
        for index, name in enumerate(self.names):
            parent = self.parents[index]
            if name == OP:
                wall += durations[index]
            elif parent >= 0 and self.names[parent] == OP:
                covered += durations[index]
        return wall, covered

    def dump(self, path: str) -> None:
        """Write every span and sample as one JSON document."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": [list(row) for row in zip(
                           self.names, self.starts, self.ends,
                           self.parents, self.ops)],
                       "samples": self.samples}, handle)


def check_nesting(recorder: SpanRecorder) -> List[str]:
    """Children outside their parent, overlapping siblings, or op trees
    whose self times do not add up to the op's wall time."""
    problems: List[str] = []
    last_end: Dict[int, float] = {}
    for index, parent in enumerate(recorder.parents):
        start, end = recorder.starts[index], recorder.ends[index]
        if end < start:
            problems.append(f"span {index} ends before it starts")
        if parent < 0:
            continue
        if start < recorder.starts[parent] or end > recorder.ends[parent]:
            problems.append(f"span {index} lies outside its parent")
        if start < last_end.get(parent, start):
            problems.append(f"span {index} overlaps a sibling")
        last_end[parent] = end
    own = recorder.self_times()
    durations = recorder.durations()
    roots: Dict[int, int] = {}
    totals: Dict[int, float] = {}
    for index, parent in enumerate(recorder.parents):
        root = index if parent < 0 else roots[parent]
        roots[index] = root
        totals[root] = totals.get(root, 0.0) + own[index]
    for root, total in totals.items():
        if recorder.names[root] == OP and \
                abs(total - durations[root]) > 1e-9:
            problems.append(f"op span {root}: self times sum to {total!r}, "
                            f"wall is {durations[root]!r}")
    return problems


Hook = Callable[[SpanRecorder, tuple, object], None]


def _wrap(recorder: SpanRecorder, name: str, function: Callable,
          after: Optional[Hook]) -> Callable:
    def traced(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.close(index)
        if after is not None:
            after(recorder, args, result)
        return result

    return traced


def _patch(recorder: SpanRecorder, owner, attribute: str, name: str,
           after: Optional[Hook] = None) -> None:
    raw = (owner.__dict__[attribute] if isinstance(owner, type)
           else getattr(owner, attribute))
    if isinstance(raw, classmethod):
        setattr(owner, attribute,
                classmethod(_wrap(recorder, name, raw.__func__, after)))
    else:
        setattr(owner, attribute, _wrap(recorder, name, raw, after))


def _size(path) -> float:
    return float(os.path.getsize(path))


def install(recorder: SpanRecorder) -> None:
    """Wrap each layer's public entry points.  A function imported by
    name into other modules is patched in every module that calls it."""
    import repro.analysis.advisor as advisor
    import repro.core.lsequence as lsequence
    import repro.queries.session as session
    import repro.runtime.batch as batch
    import repro.runtime.sessions as sessions
    import repro.runtime.shards as shards
    import repro.store as store
    import repro.store.format as store_format
    import repro.store.graphstore as graphstore
    import repro.streaming.cleaner as cleaner

    def after_build(rec: SpanRecorder, args: tuple, graph) -> None:
        stats = graph.stats
        rec.sample("engine.forward_s", stats.forward_seconds)
        rec.sample("engine.sweep_s", stats.sweep_seconds)
        rec.sample("engine.backward_s", stats.backward_seconds)
        rec.sample("engine.nodes_created", stats.nodes_created)
        rec.sample("engine.edges_created", stats.edges_created)
        rec.sample("engine.nodes_kept", stats.nodes_kept)
        rec.sample("engine.edges_kept", stats.edges_kept)

    def after_batch(rec: SpanRecorder, args: tuple, result) -> None:
        rec.sample("batch.overhead_s",
                   result.wall_seconds - result.compute_seconds)
        rec.sample("batch.objects", len(result))

    swept: "weakref.WeakSet" = weakref.WeakSet()
    original_marginal = session.QuerySession.location_marginal

    def location_marginal(self, tau):
        # A session's first marginal runs the alpha sweep and later ones
        # read it: two different layers, so two span names.
        first = self not in swept
        if first:
            swept.add(self)
        index = recorder.open("session.sweep" if first else "query.stay")
        try:
            return original_marginal(self, tau)
        finally:
            recorder.close(index)

    session.QuerySession.location_marginal = location_marginal
    _patch(recorder, lsequence.LSequence, "from_readings", "prior.lsequence")
    _patch(recorder, advisor, "advise", "advisor.route")
    _patch(recorder, batch, "build_ct_graph", "engine.build", after_build)
    _patch(recorder, batch.BatchCleaner, "clean", "batch.clean", after_batch)
    _patch(recorder, graphstore.GraphStore, "commit", "store.commit",
           lambda rec, args, path: rec.sample("store.bytes_written",
                                              _size(path)))
    for module in (store, store_format, batch, graphstore):
        _patch(recorder, module, "load_ctg", "store.load",
               lambda rec, args, graph: rec.sample("store.bytes_mapped",
                                                   _size(args[0])))
    _patch(recorder, session.QuerySession, "match_probability",
           "query.match",
           lambda rec, args, p: rec.sample("query.edges_per_match",
                                           args[0].graph.num_edges))
    _patch(recorder, cleaner.StreamingCleaner, "extend", "stream.advance")
    _patch(recorder, cleaner.StreamingCleaner, "filtered_distribution",
           "stream.estimate")
    _patch(recorder, sessions.StreamSessionManager, "checkpoint",
           "checkpoint.write",
           lambda rec, args, path: rec.sample("checkpoint.bytes",
                                              _size(path)))
    _patch(recorder, shards.ServeEngine, "process", "serve.process")


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _in_ops(op_ids: List[int]) -> List[int]:
    """Positions inside timed ops, or all of them when the layer only
    ran outside ops (the engine during query-syn1's set-up)."""
    inside = [k for k, op in enumerate(op_ids) if op >= 0]
    return inside if inside else list(range(len(op_ids)))


def layer_metrics(recorder: SpanRecorder) -> Dict[str, float]:
    """Per-layer metrics by name: ``*_ms``/``*_us`` are the mean duration
    of one call, counts and bytes means per call, ratios totals over
    totals.  A layer the workload never called reads 0."""
    durations = recorder.durations()
    own = recorder.self_times()

    def spans(name: str) -> List[int]:
        found = [i for i, span in enumerate(recorder.names) if span == name]
        return [found[k] for k in _in_ops([recorder.ops[i] for i in found])]

    def values(name: str) -> List[float]:
        pairs = recorder.samples.get(name, [])
        return [pairs[k][1] for k in _in_ops([op for op, _ in pairs])]

    def mean_ms(name: str, times: Optional[List[float]] = None) -> float:
        times = durations if times is None else times
        return 1e3 * _mean([times[i] for i in spans(name)])

    forward = values("engine.forward_s")
    sweep = values("engine.sweep_s")
    # Backward minus sweep: materialisation, including the .ctg write.
    materialize = [b - s for b, s in zip(values("engine.backward_s"), sweep)]
    nodes = sum(values("engine.nodes_created"))
    edges = sum(values("engine.edges_created"))
    objects = sum(values("batch.objects"))
    frontier = values("stream.frontier_states")
    wall, covered = recorder.coverage()
    return {
        "prior.lsequence_ms": mean_ms("prior.lsequence"),
        "advisor.route_ms": mean_ms("advisor.route"),
        "engine.forward_ms": 1e3 * _mean(forward),
        "engine.sweep_ms": 1e3 * _mean(sweep),
        "engine.materialize_ms": 1e3 * _mean(materialize),
        "engine.nodes_created": _mean(values("engine.nodes_created")),
        "engine.edges_created": _mean(values("engine.edges_created")),
        "engine.nodes_kept_ratio": (sum(values("engine.nodes_kept")) / nodes
                                    if nodes else 0.0),
        "engine.edges_kept_ratio": (sum(values("engine.edges_kept")) / edges
                                    if edges else 0.0),
        "batch.overhead_ms": (1e3 * sum(values("batch.overhead_s"))
                              / objects if objects else 0.0),
        "store.bytes_written": _mean(values("store.bytes_written")),
        "store.load_ms": mean_ms("store.load"),
        "store.bytes_mapped": _mean(values("store.bytes_mapped")),
        "session.sweep_ms": mean_ms("session.sweep"),
        "query.stay_ms": mean_ms("query.stay"),
        "query.match_ms": mean_ms("query.match"),
        "query.edges_per_match": _mean(values("query.edges_per_match")),
        "stream.advance_ms": mean_ms("stream.advance"),
        "stream.estimate_ms": mean_ms("stream.estimate"),
        "stream.frontier_states_mean": _mean(frontier),
        "stream.frontier_states_max": max(frontier) if frontier else 0.0,
        "checkpoint.write_ms": mean_ms("checkpoint.write"),
        "checkpoint.bytes": _mean(values("checkpoint.bytes")),
        "serve.process_self_ms": mean_ms("serve.process", own),
        "serve.parse_us": 1e3 * mean_ms("serve.parse"),
        "gc.pause_ms": 1e3 * recorder.gc_pause,
        "gc.collections": float(recorder.gc_collections),
        "trace.span_coverage": covered / wall if wall else 0.0,
    }


def self_time_table(recorder: SpanRecorder) -> List[Tuple[str, int, float]]:
    """``(span name, calls, summed self seconds)`` inside ops, largest
    first: the breakdown that adds up to the ops' wall time."""
    own = recorder.self_times()
    table: Dict[str, Tuple[int, float]] = {}
    for index, name in enumerate(recorder.names):
        if recorder.ops[index] >= 0:
            calls, total = table.get(name, (0, 0.0))
            table[name] = (calls + 1, total + own[index])
    return sorted(((name, calls, total)
                   for name, (calls, total) in table.items()),
                  key=lambda row: -row[2])
