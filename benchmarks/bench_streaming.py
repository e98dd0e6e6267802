"""Bounded-memory streaming: eviction exactness, resume, kernel, shards.

Schema v2 measures and gates five claims about the streaming stack on a
long synthetic reading stream (full run: 100k steps, ``window=64``):

* **bounded memory** — the retained level count never exceeds the
  window and the per-level frontier never exceeds the workload's
  state-space bound, no matter how long the stream runs (the whole
  point of evicting settled prefix levels into the frontier summary);
* **eviction exactness** — ``filtered_distribution()`` is *bit-equal*
  (``==`` on floats, not approximate) at every step to a
  ``StreamingCleaner(window=None)`` that retains the entire stream, over
  a long shared prefix;
* **resume exactness** — checkpointing mid-stream, resuming from the
  file and feeding the remainder yields bit-equal filtered estimates
  and a bit-identical ``finalize()`` graph versus the uninterrupted
  run;
* **kernel parity + speedup** — the vectorized frontier-advance kernel
  (``backend="numpy"``, :class:`~repro.core.kernels.FrontierKernel`)
  matches the python oracle (exact discrete structure, tolerance-gated
  floats, bit-exact numpy-vs-numpy checkpoint/resume) and, on
  non-smoke runs, ingests at least ``KERNEL_SPEEDUP_GATE``x faster;
* **shard-merge identity** — an in-process
  :class:`~repro.runtime.shards.StreamShardPool` over 2 worker
  processes emits byte-identical merged output to a single
  :class:`~repro.runtime.shards.ServeEngine`.

Emits a machine-readable ``BENCH_streaming.json``.  Usage::

    python benchmarks/bench_streaming.py                  # full run
    python benchmarks/bench_streaming.py --smoke          # CI-sized
    python benchmarks/bench_streaming.py --backend python # skip kernel
    python benchmarks/bench_streaming.py --check BENCH_streaming.json

``--check`` validates an existing result file and exits non-zero on
problems.  The parity flags, the memory bounds and the shard identity
are gated in every payload (they are correctness claims, not
performance numbers); throughput is reported, and the kernel speedup is
gated only on full (non-smoke) runs where the numpy backend actually
ran.  Without numpy the kernel block records ``available: false`` and a
null speedup — the pure-python leg still passes every gate.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

from repro.core.algorithm import CleaningOptions
from repro.core.constraints import (
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.core.kernels import numpy_available
from repro.io.jsonio import save_constraints
from repro.runtime.sessions import StreamSessionManager
from repro.runtime.shards import ServeEngine, StreamShardPool
from repro.streaming import StreamingCleaner

SCHEMA_VERSION = 2

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

#: Minimum numpy-over-python ingest speedup on full runs.  The measured
#: headline is ~21x on the reference container; 4x leaves headroom for
#: slow CI hardware while still catching a de-vectorized regression.
KERNEL_SPEEDUP_GATE = 4.0

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


def run_kernel_leg(rows: Sequence[Dict[str, float]], window: int,
                   python_seconds: float, backend: str) -> Dict[str, object]:
    """Time the numpy kernel over the same stream and gate its parity.

    Three sub-claims: (1) lockstep parity with the python oracle over
    the parity prefix — identical key order and floats within
    ``rel 1e-9 / abs 1e-12`` (``np.bincount`` reassociates the
    per-successor sums, so bit-equality is not promised cross-backend);
    (2) numpy-vs-numpy checkpoint/resume *is* bit-exact; (3) the
    full-stream ingest speedup over the already-timed python pass.
    """
    import math

    available = numpy_available()
    block: Dict[str, object] = {"backend": backend, "available": available}
    if backend != "numpy" or not available:
        block.update({"backend_resolved": "python", "ingest_seconds": None,
                      "readings_per_second": None, "kernel_speedup": None,
                      "parity": None})
        return block

    options = CleaningOptions(materialize="flat", backend="numpy")
    kernel = StreamingCleaner(stream_constraints(), window=window,
                              options=options)
    started = time.perf_counter()
    for row in rows:
        kernel.extend(row)
    elapsed = time.perf_counter() - started

    # -- lockstep parity over the prefix (untimed) ---------------------
    prefix = min(len(rows), PARITY_PREFIX)
    oracle = StreamingCleaner(stream_constraints(), window=window,
                              options=CleaningOptions(materialize="flat"))
    shadow = StreamingCleaner(stream_constraints(), window=window,
                              options=options)
    filtered_close = True
    for row in rows[:prefix]:
        oracle.extend(row)
        shadow.extend(row)
        expected = oracle.filtered_distribution()
        got = shadow.filtered_distribution()
        if list(expected) != list(got):
            filtered_close = False
            break
        if not all(math.isclose(got[loc], p, rel_tol=1e-9, abs_tol=1e-12)
                   for loc, p in expected.items()):
            filtered_close = False
            break

    # -- numpy-vs-numpy checkpoint/resume is bit-exact -----------------
    resume_at = max(1, len(rows) // 2)
    killed = StreamingCleaner(stream_constraints(), window=window,
                              options=options)
    for row in rows[:resume_at]:
        killed.extend(row)
    fd, path = tempfile.mkstemp(prefix="bench_kernel_", suffix=".ckpt")
    os.close(fd)
    try:
        killed.checkpoint(path)
        resumed = StreamingCleaner.resume(path)
        for row in rows[resume_at:]:
            resumed.extend(row)
        resume_bit_equal = (resumed.filtered_distribution()
                            == kernel.filtered_distribution()
                            and resumed.frontier_size()
                            == kernel.frontier_size())
    finally:
        os.unlink(path)

    block.update({
        "backend_resolved": "numpy",
        "ingest_seconds": elapsed,
        "readings_per_second": len(rows) / elapsed,
        "kernel_speedup": python_seconds / elapsed,
        "parity": {
            "filtered_close": filtered_close,
            "parity_prefix": prefix,
            "resume_bit_equal": resume_bit_equal,
        },
    })
    return block


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


def run_shard_leg(window: int, backend: str,
                  readings: int) -> Dict[str, object]:
    """Merged shard-pool output vs a single engine, byte for byte."""
    lines = shard_stream_lines(readings)
    constraints = stream_constraints()

    manager = StreamSessionManager(
        constraints, window=window,
        options=CleaningOptions(backend=backend))
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
        started = time.perf_counter()
        with StreamShardPool(SHARDS, constraints_file=constraints_file,
                             window=window, estimate_every=7,
                             backend=backend) as pool:
            pool.serve(lines, merged, err)
            pool.finish(merged, err)
        pool_seconds = time.perf_counter() - started

    return {
        "shards": SHARDS,
        "objects": SHARD_OBJECTS,
        "readings": readings,
        "merged_identical": merged.getvalue() == single.getvalue(),
        "single_seconds": single_seconds,
        "pool_seconds": pool_seconds,
    }


def run(duration: int, window: int, smoke: bool,
        backend: str) -> Dict[str, object]:
    """Execute the streaming workload; returns the JSON payload."""
    constraints = stream_constraints()
    options = CleaningOptions(materialize="flat")
    rng = random.Random(SEED)
    rows = [synthetic_row(rng) for _ in range(duration)]

    prefix = min(duration, PARITY_PREFIX)
    resume_at = duration // 2

    streaming = StreamingCleaner(constraints, window=window,
                                 options=options)
    shadow = StreamingCleaner(constraints, window=None, options=options)
    reference = StreamingCleaner(constraints, window=window,
                                 options=options)

    retained_max = 0
    frontier_max = 0
    filtered_bit_equal = True
    resume_bit_equal = True

    fd, ckpt_path = tempfile.mkstemp(prefix="bench_streaming_",
                                     suffix=".ckpt")
    os.close(fd)
    resumed: Optional[StreamingCleaner] = None
    try:
        started = time.perf_counter()
        for t, row in enumerate(rows):
            streaming.extend(row)
            retained_max = max(retained_max, streaming.retained_duration)
            frontier_max = max(frontier_max, streaming.frontier_size())
            if t < prefix:
                shadow.extend(row)
                if (streaming.filtered_distribution()
                        != shadow.filtered_distribution()):
                    filtered_bit_equal = False
        elapsed = time.perf_counter() - started

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

    kernel = run_kernel_leg(rows, window, elapsed, backend)
    shard = run_shard_leg(window, backend, min(duration, SHARD_READINGS))

    # The frontier is one state per (location, live stay counter, live
    # departure log); with L locations, one Latency(limit) and one
    # TravelingTime(ttime) the per-level state count is bounded by
    # L * (limit + 2) * (ttime + 2) regardless of stream length.
    frontier_gate = len(LOCATIONS) * (3 + 2) * (4 + 2)

    return {
        "benchmark": "bench_streaming",
        "schema_version": SCHEMA_VERSION,
        "created_unix": time.time(),
        "cpu_count": os.cpu_count() or 1,
        "smoke": smoke,
        "workload": {
            "generator": "full-support seeded stream",
            "locations": len(LOCATIONS),
            "duration": duration,
            "window": window,
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
            "ingest_seconds": elapsed,
            "readings_per_second": duration / elapsed,
        },
        "kernel": kernel,
        "shard": shard,
    }


def validate_payload(payload: Dict[str, object]) -> List[str]:
    """Schema + gate check of a ``BENCH_streaming.json`` payload."""
    problems: List[str] = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    expect(payload.get("benchmark") == "bench_streaming",
           "benchmark name missing or wrong")
    expect(payload.get("schema_version") == SCHEMA_VERSION,
           f"schema_version must be {SCHEMA_VERSION}")
    expect(isinstance(payload.get("smoke"), bool), "smoke must be a bool")
    smoke = payload.get("smoke") is True

    workload = payload.get("workload")
    if not (isinstance(workload, dict)
            and isinstance(workload.get("duration"), int)
            and workload["duration"] > 0
            and isinstance(workload.get("window"), int)
            and workload["window"] > 0):
        problems.append("workload must describe duration/window")
        workload = None

    memory = payload.get("memory")
    if not (isinstance(memory, dict)
            and isinstance(memory.get("retained_levels_max"), int)
            and isinstance(memory.get("frontier_states_max"), int)
            and isinstance(memory.get("frontier_states_gate"), int)):
        problems.append("memory block missing or malformed")
        memory = None

    if workload is not None and memory is not None:
        expect(memory["retained_levels_max"] <= workload["window"],
               "memory is unbounded: retained levels "
               f"{memory['retained_levels_max']} exceed the window "
               f"{workload['window']}")
        expect(memory["frontier_states_max"]
               <= memory["frontier_states_gate"],
               "frontier grew past the state-space bound "
               f"({memory['frontier_states_max']} > "
               f"{memory['frontier_states_gate']})")
        expect(workload["duration"] > workload["window"],
               "workload never evicted — duration must exceed the window")

    parity = payload.get("parity")
    if not isinstance(parity, dict):
        problems.append("parity block missing")
    else:
        for flag in ("filtered_bit_equal", "resume_bit_equal",
                     "finalize_bit_equal"):
            expect(parity.get(flag) is True,
                   f"parity.{flag} must be true — the streaming path "
                   "diverged from the exact reference")

    throughput = payload.get("throughput")
    expect(isinstance(throughput, dict)
           and isinstance(throughput.get("ingest_seconds"), float)
           and throughput["ingest_seconds"] > 0.0
           and isinstance(throughput.get("readings_per_second"), float)
           and throughput["readings_per_second"] > 0.0,
           "throughput must record positive ingest timings")

    kernel = payload.get("kernel")
    if not (isinstance(kernel, dict)
            and isinstance(kernel.get("available"), bool)
            and isinstance(kernel.get("backend"), str)):
        problems.append("kernel block missing or malformed")
    elif kernel.get("backend_resolved") == "numpy":
        kernel_parity = kernel.get("parity")
        if not isinstance(kernel_parity, dict):
            problems.append("kernel.parity block missing")
        else:
            expect(kernel_parity.get("filtered_close") is True,
                   "kernel.parity.filtered_close must be true — the "
                   "vectorized frontier kernel diverged from the oracle")
            expect(kernel_parity.get("resume_bit_equal") is True,
                   "kernel.parity.resume_bit_equal must be true — a "
                   "numpy checkpoint/resume round-trip changed bits")
        speedup = kernel.get("kernel_speedup")
        expect(isinstance(speedup, float) and speedup > 0.0,
               "kernel_speedup must be a positive float on the numpy leg")
        if not smoke and isinstance(speedup, float):
            expect(speedup >= KERNEL_SPEEDUP_GATE,
                   f"kernel_speedup {speedup:.2f}x is below the "
                   f"{KERNEL_SPEEDUP_GATE:.0f}x gate — the vectorized "
                   "frontier advance regressed")
    else:
        expect(kernel.get("kernel_speedup") is None,
               "kernel_speedup must be null when the numpy kernel "
               "did not run")

    shard = payload.get("shard")
    if not (isinstance(shard, dict)
            and isinstance(shard.get("shards"), int)
            and shard["shards"] >= 2
            and isinstance(shard.get("readings"), int)
            and shard["readings"] > 0):
        problems.append("shard block missing or malformed")
    else:
        expect(shard.get("merged_identical") is True,
               "shard.merged_identical must be true — the sharded "
               "fleet's merged output diverged from a single engine")
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=int, default=DURATION)
    parser.add_argument("--window", type=int, default=WINDOW)
    parser.add_argument("--backend", choices=("numpy", "python"),
                        default="numpy",
                        help="kernel leg: 'numpy' times the vectorized "
                             "frontier kernel (falling back gracefully "
                             "when numpy is absent), 'python' skips the "
                             "kernel timing entirely")
    parser.add_argument("--out", default="BENCH_streaming.json")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized stream (2k steps; same gates minus "
                             "the kernel speedup — the bounds and parity "
                             "are size-independent, the speedup is not)")
    parser.add_argument("--check", metavar="FILE",
                        help="validate an existing result file and exit")
    args = parser.parse_args(argv)

    if args.check:
        with open(args.check) as handle:
            payload = json.load(handle)
        problems = validate_payload(payload)
        for problem in problems:
            print(f"SCHEMA: {problem}", file=sys.stderr)
        if not problems:
            memory = payload["memory"]
            speedup = payload["kernel"].get("kernel_speedup")
            kernel_note = (f"kernel {speedup:.1f}x"
                           if isinstance(speedup, float)
                           else "kernel skipped")
            print(f"{args.check}: well-formed "
                  f"({payload['workload']['duration']} steps, retained "
                  f"<= {memory['retained_levels_max']} levels, frontier "
                  f"<= {memory['frontier_states_max']} states, "
                  f"parity ok, {kernel_note}, shards merged ok)")
        return 1 if problems else 0

    if args.smoke:
        args.duration = min(args.duration, SMOKE_DURATION)

    payload = run(args.duration, args.window, args.smoke, args.backend)
    problems = validate_payload(payload)
    if problems:
        for problem in problems:
            print(f"SELF-CHECK: {problem}", file=sys.stderr)
        return 1
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    workload, memory = payload["workload"], payload["memory"]
    throughput = payload["throughput"]
    kernel, shard = payload["kernel"], payload["shard"]
    print(f"workload: {workload['duration']} steps x "
          f"{workload['locations']} locations, window "
          f"{workload['window']}")
    print(f"memory: retained <= {memory['retained_levels_max']} levels "
          f"(window {workload['window']}), frontier <= "
          f"{memory['frontier_states_max']} states (gate "
          f"{memory['frontier_states_gate']}), checkpoint "
          f"{memory['checkpoint_bytes']} B")
    print(f"parity: filtered bit-equal over {workload['parity_prefix']} "
          f"steps, resume + finalize bit-equal from step "
          f"{workload['resume_at']}")
    print(f"throughput (python): "
          f"{throughput['readings_per_second']:,.0f} readings/s "
          f"({throughput['ingest_seconds']:.1f} s ingest)")
    if kernel["backend_resolved"] == "numpy":
        print(f"kernel (numpy): "
              f"{kernel['readings_per_second']:,.0f} readings/s, "
              f"{kernel['kernel_speedup']:.1f}x over python, parity ok")
    else:
        print("kernel: numpy unavailable or skipped — python fallback "
              "exercised")
    print(f"shards: {shard['shards']} workers x {shard['objects']} "
          f"objects over {shard['readings']} readings, merged output "
          f"{'identical' if shard['merged_identical'] else 'DIVERGED'}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
