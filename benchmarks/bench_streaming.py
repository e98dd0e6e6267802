"""Bounded-memory streaming: eviction exactness, resume, rows, shards.

Schema v4 measures and gates five claims about the streaming stack on a
long synthetic reading stream (full run: 100k steps, ``window=64``):

* **bounded memory** — the retained level count never exceeds the
  window and the per-level frontier never exceeds the workload's
  state-space bound, no matter how long the stream runs (the whole
  point of evicting settled prefix levels into the frontier summary);
  the lean checkpoint's size is recorded;
* **eviction exactness** — ``filtered_distribution()`` is *bit-equal*
  (``==`` on floats, not approximate) at every step to a
  ``StreamingCleaner(window=None)`` that retains the entire stream, over
  a long shared prefix;
* **resume exactness** — checkpointing mid-stream, resuming from the
  file and feeding the remainder yields bit-equal filtered estimates
  and a bit-identical ``finalize()`` graph versus the uninterrupted
  run;
* **memoised rows** — ``backend="auto"`` advances through the compact
  engine's memoised successor rows
  (:meth:`~repro.core.engine.EngineCache.advance`).  On the synthetic
  stream and on a SYN1 fleet stream (12 objects x 90 readings of
  ``syn1_building`` under inferred DU+LT+TT constraints) its estimates
  must equal ``backend="python"``'s at every step, and on full runs it
  must ingest at least ``ROWS_GATES`` times faster;
* **shard-merge identity** — an in-process
  :class:`~repro.runtime.shards.StreamShardPool` over 2 worker
  processes emits byte-identical merged output to a single
  :class:`~repro.runtime.shards.ServeEngine`; worker spawn and
  per-reading serve time are recorded apart.

Usage::

    python benchmarks/bench_streaming.py                  # full run
    python benchmarks/bench_streaming.py --smoke          # CI-sized
    python benchmarks/bench_streaming.py --check BENCH_streaming.json

The parity flags, the memory bounds and the shard identity are gated in
every record (they are correctness claims, not performance numbers);
throughput is reported, and the row speedups are gated only on full
runs.  The rows need no numpy; the SYN1 stream is simulated, which
does, so without numpy its entry is null.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import random
import sys
import tempfile
import time
from dataclasses import replace
from typing import Dict, List, Optional

import harness

from repro.core.algorithm import CleaningOptions
from repro.core.constraints import (
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.core.engine import EngineCache
from repro.core.kernels import numpy_available
from repro.io.jsonio import save_constraints
from repro.runtime.sessions import StreamSessionManager
from repro.runtime.shards import ServeEngine, StreamShardPool
from repro.streaming import StreamingCleaner

SCHEMA_VERSION = 4

DURATION = 100_000
SMOKE_DURATION = 2_000
WINDOW = 64

#: Locations of the synthetic floor.  Full-support rows keep the
#: frontier alive (and maximally wide) at every step.
LOCATIONS = ("A", "B", "C", "D", "E", "F", "G", "H")

#: How far back the full-retention ``window=None`` cleaner shadows the
#: stream for the bit-equality check (it holds every level, so the
#: shadow is capped; the streaming side continues to the full horizon).
PARITY_PREFIX = 4_096

#: Minimum rows-over-python ingest speedup per stream on full runs.  The
#: synthetic stream's few states hit the row cache almost always; the
#: SYN1 stream's thousands-of-states frontiers pass the cache's row cap
#: (``STREAM_ROW_CAP``), past which rows are recomputed.
ROWS_GATES = {"synthetic": 4.0, "syn1": 1.3}

#: The SYN1 fleet stream: objects, readings each, and the seed of the
#: simulated objects.  Smoke runs stream a few short objects.
SYN1_OBJECTS, SYN1_READINGS = 12, 90
SYN1_SMOKE = (3, 30)
SYN1_SEED = 17

#: Readings fed through the shard-identity comparison (per leg).  The
#: guarantee is size-independent; this is enough to cross estimate
#: boundaries on every shard.
SHARD_READINGS = 2_000
SHARDS = 2
SHARD_OBJECTS = 4

SEED = 20140328  # EDBT 2014 in Athens


def stream_constraints() -> ConstraintSet:
    """Constraints that exercise every state dimension.

    ``Latency`` makes the frontier track stay counters, and
    ``TravelingTime`` makes it track departure logs — the two parts of
    the Markov state beyond the bare location — so the bound we gate is
    the bound of the *general* state space, not of a degenerate one.
    """
    return ConstraintSet([
        Unreachable("A", "E"),
        Unreachable("E", "A"),
        Unreachable("C", "G"),
        Latency("B", 3),
        TravelingTime("B", "F", 4),
    ])


def synthetic_row(rng: random.Random) -> Dict[str, float]:
    """One full-support candidate row with seeded random weights."""
    weights = [rng.random() + 0.05 for _ in LOCATIONS]
    total = sum(weights)
    return {name: weight / total
            for name, weight in zip(LOCATIONS, weights)}


def lockstep(oracle: StreamingCleaner, compact: StreamingCleaner,
             row: Dict[str, float], python_first: bool) -> tuple:
    """Feed ``row`` to the python and the rows cleaner, in the order
    ``python_first`` says: ``(python seconds, rows seconds, estimates
    equal)``; the comparison is untimed.  Callers alternate the order
    per reading, so neither cleaner always runs on the caches the other
    warmed."""
    first, second = (oracle, compact) if python_first else (compact, oracle)
    started = time.perf_counter()
    first.extend(row)
    middle = time.perf_counter()
    second.extend(row)
    ended = time.perf_counter()
    python_seconds, rows_seconds = ((middle - started, ended - middle)
                                    if python_first
                                    else (ended - middle, middle - started))
    return (python_seconds, rows_seconds,
            compact.filtered_distribution()
            == oracle.filtered_distribution())


def rows_record(readings: int, python_seconds: float, rows_seconds: float,
                equal: bool, cache: EngineCache) -> Dict[str, object]:
    """One stream's entry in the record's ``rows`` block."""
    return {
        "readings": readings,
        "python_seconds": python_seconds,
        "rows_seconds": rows_seconds,
        "readings_per_second": readings / rows_seconds,
        "speedup": python_seconds / rows_seconds,
        "estimates_equal": equal,
        "cached_rows": cache.cached_tables,
    }


def syn1_streams(objects: int, readings: int):
    """``(constraints, per-object candidate rows)`` of a simulated SYN1
    fleet, or ``None`` when the simulation layer's numpy is missing."""
    try:
        importlib.import_module("numpy")
    except ImportError:
        return None
    from repro.core.lsequence import LSequence
    from repro.inference import infer_constraints
    from repro.mapmodel.floorplans import syn1_building
    from repro.simulation.datasets import build_dataset

    dataset = build_dataset(syn1_building(), durations=(readings,),
                            per_duration=objects, seed=SYN1_SEED)
    constraints = infer_constraints(dataset.building,
                                    kinds=("DU", "LT", "TT"),
                                    distances=dataset.distances)
    streams = []
    for trajectory in dataset.all_trajectories():
        lsequence = LSequence.from_readings(trajectory.readings,
                                            dataset.prior)
        streams.append([lsequence.candidates(tau)
                        for tau in range(lsequence.duration)])
    return constraints, streams


def run_syn1_leg(smoke: bool) -> Optional[Dict[str, object]]:
    """The SYN1 fleet, one reading of every object per timestep, on
    both backends; the rows cleaners share one cache, as in a fleet."""
    objects, readings = SYN1_SMOKE if smoke else (SYN1_OBJECTS,
                                                  SYN1_READINGS)
    fleet = syn1_streams(objects, readings)
    if fleet is None:
        return None
    constraints, streams = fleet
    cache = EngineCache(constraints)
    options = CleaningOptions(materialize="flat")
    oracles = [StreamingCleaner(constraints, window=WINDOW, options=options)
               for _ in streams]
    compacts = [StreamingCleaner(constraints, window=WINDOW,
                                 options=replace(options, backend="auto"),
                                 cache=cache) for _ in streams]
    python_seconds = rows_seconds = 0.0
    equal = True
    count = 0
    for tau in range(readings):
        for oracle, compact, stream in zip(oracles, compacts, streams):
            python_dt, rows_dt, same = lockstep(oracle, compact, stream[tau],
                                                count % 2 == 0)
            python_seconds += python_dt
            rows_seconds += rows_dt
            equal = equal and same
            count += 1
    record = rows_record(count, python_seconds, rows_seconds, equal, cache)
    record["objects"] = objects
    return record


def shard_stream_lines(readings: int) -> List[str]:
    """Object-tagged serve lines cycling a small fleet, seeded."""
    rng = random.Random(SEED + 1)
    lines = []
    for index in range(readings):
        row = synthetic_row(rng)
        lines.append(json.dumps({
            "object": f"tag-{index % SHARD_OBJECTS}",
            "candidates": row,
        }) + "\n")
    return lines


def run_shard_leg(readings: int) -> Dict[str, object]:
    """Merged shard-pool output vs a single engine, byte for byte.

    The pool's wall time is split into worker spawn (until every shard
    reports ready), serving the readings (plus the final lines) and
    stopping the workers.
    """
    lines = shard_stream_lines(readings)
    constraints = stream_constraints()

    manager = StreamSessionManager(
        constraints, window=WINDOW,
        options=CleaningOptions(backend="auto"))
    engine = ServeEngine(manager, estimate_every=7)
    single = io.StringIO()
    started = time.perf_counter()
    for line in lines:
        payload = json.loads(line)
        _, out_lines, _ = engine.process(payload["object"],
                                         payload["candidates"])
        for rendered in out_lines:
            single.write(rendered + "\n")
    for _object_id, rendered in engine.final_entries():
        single.write(rendered + "\n")
    single_seconds = time.perf_counter() - started

    with tempfile.TemporaryDirectory(prefix="bench_shards_") as tmp:
        constraints_file = os.path.join(tmp, "constraints.json")
        save_constraints(constraints, constraints_file)
        merged, err = io.StringIO(), io.StringIO()
        pool = StreamShardPool(SHARDS, constraints_file=constraints_file,
                               window=WINDOW, estimate_every=7,
                               backend="auto")
        started = time.perf_counter()
        try:
            pool.start()
            spawned = time.perf_counter()
            pool.serve(lines, merged, err)
            pool.finish(merged, err)
            served = time.perf_counter()
        finally:
            pool.close()
        closed = time.perf_counter()

    return {
        "shards": SHARDS,
        "objects": SHARD_OBJECTS,
        "readings": readings,
        "merged_identical": merged.getvalue() == single.getvalue(),
        "single_seconds": single_seconds,
        "single_per_reading_ms": 1e3 * single_seconds / readings,
        "spawn_seconds": spawned - started,
        "serve_seconds": served - spawned,
        "pool_per_reading_ms": 1e3 * (served - spawned) / readings,
        "close_seconds": closed - served,
    }


def run(args) -> Dict[str, object]:
    """Execute the streaming workload; returns the record's own fields."""
    duration = SMOKE_DURATION if args.smoke else DURATION
    constraints = stream_constraints()
    options = CleaningOptions(materialize="flat")
    rng = random.Random(SEED)
    rows = [synthetic_row(rng) for _ in range(duration)]

    prefix = min(duration, PARITY_PREFIX)
    resume_at = duration // 2

    streaming = StreamingCleaner(constraints, window=WINDOW,
                                 options=options)
    cache = EngineCache(constraints)
    compact = StreamingCleaner(constraints, window=WINDOW,
                               options=replace(options, backend="auto"),
                               cache=cache)
    shadow = StreamingCleaner(constraints, window=None, options=options)
    reference = StreamingCleaner(constraints, window=WINDOW,
                                 options=options)

    retained_max = 0
    frontier_max = 0
    filtered_bit_equal = True
    rows_equal = True
    resume_bit_equal = True
    python_seconds = rows_seconds = 0.0

    fd, ckpt_path = tempfile.mkstemp(prefix="bench_streaming_",
                                     suffix=".ckpt")
    os.close(fd)
    resumed: Optional[StreamingCleaner] = None
    try:
        for t, row in enumerate(rows):
            python_dt, rows_dt, same = lockstep(streaming, compact, row,
                                                t % 2 == 0)
            python_seconds += python_dt
            rows_seconds += rows_dt
            rows_equal = rows_equal and same
            retained_max = max(retained_max, streaming.retained_duration)
            frontier_max = max(frontier_max, streaming.frontier_size())
            if t < prefix:
                shadow.extend(row)
                if (streaming.filtered_distribution()
                        != shadow.filtered_distribution()):
                    filtered_bit_equal = False

        # -- checkpoint/resume against the uninterrupted reference ------
        for row in rows[:resume_at]:
            reference.extend(row)
        reference.checkpoint(ckpt_path)
        resumed = StreamingCleaner.resume(ckpt_path)
        for row in rows[resume_at:]:
            reference.extend(row)
            resumed.extend(row)
            if (resumed.filtered_distribution()
                    != reference.filtered_distribution()):
                resume_bit_equal = False
        finalize_bit_equal = (resumed.finalize() == reference.finalize()
                              and resumed.base == reference.base)
    finally:
        os.unlink(ckpt_path)

    ckpt_bytes = streaming.checkpoint(ckpt_path + ".size")
    os.unlink(ckpt_path + ".size")

    synthetic = rows_record(duration, python_seconds, rows_seconds,
                            rows_equal, cache)
    syn1 = run_syn1_leg(args.smoke)
    shard = run_shard_leg(min(duration, SHARD_READINGS))

    # The frontier is one state per (location, live stay counter, live
    # departure log); with L locations, one Latency(limit) and one
    # TravelingTime(ttime) the per-level state count is bounded by
    # L * (limit + 2) * (ttime + 2) regardless of stream length.
    frontier_gate = len(LOCATIONS) * (3 + 2) * (4 + 2)

    return {
        "workload": {
            "generator": "full-support seeded stream",
            "locations": len(LOCATIONS),
            "duration": duration,
            "window": WINDOW,
            "parity_prefix": prefix,
            "resume_at": resume_at,
        },
        "memory": {
            "retained_levels_max": retained_max,
            "frontier_states_max": frontier_max,
            "frontier_states_gate": frontier_gate,
            "checkpoint_bytes": ckpt_bytes,
        },
        "parity": {
            "filtered_bit_equal": filtered_bit_equal,
            "resume_bit_equal": resume_bit_equal,
            "finalize_bit_equal": finalize_bit_equal,
        },
        "throughput": {
            "ingest_seconds": python_seconds,
            "readings_per_second": duration / python_seconds,
        },
        "rows": {
            "numpy_available": numpy_available(),
            "synthetic": synthetic,
            "syn1": syn1,
        },
        "shard": shard,
    }


def rows_note(rows: Dict[str, object]) -> str:
    """The row speedups of a record, one clause per stream."""
    notes = []
    for name in ROWS_GATES:
        stream = rows.get(name)
        notes.append(f"{name} {stream['speedup']:.1f}x "
                     f"({stream['readings_per_second']:,.0f}/s)"
                     if isinstance(stream, dict) else f"{name} skipped")
    return "rows " + ", ".join(notes)


def validate(record, problems):
    """The streaming record's schema and gates."""
    smoke = record.get("smoke") is True
    workload = record.get("workload")
    if not (isinstance(workload, dict)
            and isinstance(workload.get("duration"), int)
            and workload["duration"] > 0
            and isinstance(workload.get("window"), int)
            and workload["window"] > 0):
        problems.append("workload must describe duration/window")
        workload = None

    memory = record.get("memory")
    if not (isinstance(memory, dict)
            and isinstance(memory.get("retained_levels_max"), int)
            and isinstance(memory.get("frontier_states_max"), int)
            and isinstance(memory.get("frontier_states_gate"), int)
            and isinstance(memory.get("checkpoint_bytes"), int)):
        problems.append("memory block missing or malformed")
        memory = None

    if workload is not None and memory is not None:
        problems.expect(memory["retained_levels_max"] <= workload["window"],
                        "memory is unbounded: retained levels "
                        f"{memory['retained_levels_max']} exceed the window "
                        f"{workload['window']}")
        problems.expect(memory["frontier_states_max"]
                        <= memory["frontier_states_gate"],
                        "frontier grew past the state-space bound "
                        f"({memory['frontier_states_max']} > "
                        f"{memory['frontier_states_gate']})")
        problems.expect(workload["duration"] > workload["window"],
                        "workload never evicted: duration must exceed the "
                        "window")

    parity = problems.block(record, "parity")
    if parity is not None:
        for flag in ("filtered_bit_equal", "resume_bit_equal",
                     "finalize_bit_equal"):
            problems.expect(parity.get(flag) is True,
                            f"parity.{flag} must be true: the streaming "
                            "path diverged from the exact reference")

    problems.block(record, "throughput", ("ingest_seconds",
                                          "readings_per_second"))

    rows = record.get("rows")
    if not (isinstance(rows, dict)
            and isinstance(rows.get("numpy_available"), bool)
            and "syn1" in rows):
        problems.append("rows block missing or malformed")
    else:
        if rows.get("syn1") is None:
            problems.expect(smoke, "rows.syn1 is null: a full run needs "
                                   "the SYN1 stream (the simulation needs "
                                   "numpy)")
        for name, gate in ROWS_GATES.items():
            stream = rows.get(name)
            if stream is None and name == "syn1":
                continue
            if not (isinstance(stream, dict)
                    and isinstance(stream.get("speedup"), float)
                    and stream["speedup"] > 0.0
                    and isinstance(stream.get("readings_per_second"),
                                   float)):
                problems.append(f"rows.{name} missing or malformed")
                continue
            problems.expect(stream.get("estimates_equal") is True,
                            f"rows.{name}.estimates_equal must be true: the "
                            "memoised rows diverged from the python oracle")
            if not smoke:
                problems.expect(stream["speedup"] >= gate,
                                f"rows.{name}.speedup "
                                f"{stream['speedup']:.2f}x is below the "
                                f"{gate}x gate: the row-cached advance "
                                "regressed")

    shard = problems.block(record, "shard", ("spawn_seconds",
                                             "pool_per_reading_ms",
                                             "single_per_reading_ms"))
    if shard is not None:
        problems.expect(isinstance(shard.get("shards"), int)
                        and shard["shards"] >= 2
                        and isinstance(shard.get("readings"), int)
                        and shard["readings"] > 0,
                        "shard block must record shards (>= 2) and "
                        "readings")
        problems.expect(shard.get("merged_identical") is True,
                        "shard.merged_identical must be true: the sharded "
                        "fleet's merged output diverged from a single "
                        "engine")


def summary(record):
    workload, memory = record["workload"], record["memory"]
    shard = record["shard"]
    return (f"{workload['duration']} steps, window {workload['window']}: "
            f"retained <= {memory['retained_levels_max']} levels, frontier "
            f"<= {memory['frontier_states_max']} states (gate "
            f"{memory['frontier_states_gate']}), checkpoint "
            f"{memory['checkpoint_bytes']} B; parity ok; "
            f"python {record['throughput']['readings_per_second']:,.0f} "
            f"readings/s, {rows_note(record['rows'])}, estimates equal; "
            f"{shard['shards']} shards merged identically, spawn "
            f"{shard['spawn_seconds']:.2f} s, "
            f"{shard['pool_per_reading_ms']:.3f} ms a reading "
            f"pooled vs {shard['single_per_reading_ms']:.3f} ms "
            "single")


if __name__ == "__main__":
    sys.exit(harness.main("streaming", SCHEMA_VERSION, run, validate,
                          summary, harness.parser(__doc__)))
