"""The binary graph store vs pickle: write, cold load, warm queries.

Three claims about the ``.ctg`` format (``repro.store``) are measured on
one wide workload (``WIDTH`` locations a level, ~9.2k edges a level at
full size):

* **write** -- the compact engine's store sink
  (``CleaningOptions(output=...)``, which writes the flat columns into
  the ``.ctg`` layout) against the conventional persistence pipeline end
  to end (engine -> flat tuple materialisation -> ``pickle.dump`` ->
  file).  Reported, not gated: the sink builds the same tuples before it
  writes them, so it does not beat the pickle pipeline here;
* **cold load** -- ``load_ctg(path, mmap=True)`` serves a query-ready
  graph view from a cold start at least ``COLD_LOAD_GATE`` times faster
  than unpickling the equivalent ``FlatCTGraph`` (the mmap load is
  O(header + section table); unpickling is O(nodes + edges) tuple
  construction);
* **warm queries** -- a ``QuerySession`` over the mmap-backed view must
  answer a six-query analysis bundle ``==`` one over the in-memory
  graph.  ``mmap_query_penalty``, the mmap-over-memory time ratio, is
  reported, not gated.  Each of ``PAIRED_REPEATS`` repeats times both
  bundles back to back, the arms alternating which goes first, and the
  penalty is the median of the repeats' ratios: a paired measure, so a
  shared host's drift between repeats moves both arms of a ratio alike,
  and one slow bundle moves the median of seven by one rank only.

Usage::

    python benchmarks/bench_store.py                  # full run
    python benchmarks/bench_store.py --smoke          # CI-sized
    python benchmarks/bench_store.py --check BENCH_store.json

Parity is gated on every record, the cold-load gate on full records
only.
"""

from __future__ import annotations

import os
import pickle
import statistics
import sys
import tempfile
import time
from typing import List

import harness
from repro.core.algorithm import CleaningOptions, build_ct_graph
from repro.core.constraints import ConstraintSet, Unreachable
from repro.core.lsequence import LSequence
from repro.queries.session import QuerySession
from repro.store import load_ctg

SCHEMA_VERSION = 4

WIDTH = 96
DURATION, SMOKE_DURATION = 1600, 96
REPEATS, SMOKE_REPEATS = 3, 2
#: Paired repeats of the warm-query bundles, whose median ratio is
#: reported.
PAIRED_REPEATS, SMOKE_PAIRED_REPEATS = 7, 2

#: The full-run gate: a cold mmap load must be at least this much
#: faster than ``pickle.loads`` of the equivalent flat graph.
COLD_LOAD_GATE = 5.0


def make_wide_instance(duration: int, width: int = WIDTH):
    """``(l-sequence, constraints, location names)``: wide levels, mild
    pruning.  Weights vary with position and time, so no level is
    uniform; the two DU constraints prune without narrowing a level."""
    names = [f"L{i:02d}" for i in range(width)]
    rows = []
    for tau in range(duration):
        weights = [1.0 + ((i * 7 + tau * 3) % 13) / 13.0
                   for i in range(width)]
        total = sum(weights)
        rows.append({name: w / total for name, w in zip(names, weights)})
    constraints = ConstraintSet([Unreachable(names[0], names[1]),
                                 Unreachable(names[2], names[3])])
    return LSequence(rows), constraints, names


def _bundle(session: QuerySession, names, duration: int):
    """The six-query warm analysis bundle."""
    mid = duration // 2
    return {
        "entropy": session.entropy_profile(),
        "expected": session.expected_visit_counts(),
        "marginal": session.location_marginal(mid),
        "visit": session.visit_probability(names[5]),
        "span": session.span_probability(
            names[7], mid, min(mid + 40, duration - 1)),
        "first": session.first_visit_distribution(names[3]),
    }


def run(args):
    """Execute the comparison; returns the record's own fields."""
    duration = SMOKE_DURATION if args.smoke else DURATION
    repeats = SMOKE_REPEATS if args.smoke else REPEATS
    paired_repeats = SMOKE_PAIRED_REPEATS if args.smoke else PAIRED_REPEATS
    lsequence, constraints, names = make_wide_instance(duration)
    with tempfile.TemporaryDirectory(prefix="bench_store_") as root:
        ctg_path = os.path.join(root, "graph.ctg")
        pickle_path = os.path.join(root, "graph.pickle")

        # -- write: engine -> tuples -> pickle  vs  engine -> .ctg ------
        def pickle_pipeline():
            graph = build_ct_graph(
                lsequence, constraints,
                CleaningOptions(engine="compact", materialize="flat"))
            with open(pickle_path, "wb") as handle:
                pickle.dump(graph, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            return graph

        def store_pipeline():
            view = build_ct_graph(
                lsequence, constraints,
                CleaningOptions(engine="compact", output=ctg_path))
            view.close()

        flat = pickle_pipeline()
        store_pipeline()
        pickle_write_seconds = harness.best_of(repeats, pickle_pipeline)
        store_write_seconds = harness.best_of(repeats, store_pipeline)
        pickle_bytes = os.path.getsize(pickle_path)
        ctg_bytes = os.path.getsize(ctg_path)

        # -- cold load: pickle.loads  vs  load_ctg(mmap=True) -----------
        with open(pickle_path, "rb") as handle:
            blob = handle.read()
        pickle_load_seconds = harness.best_of(
            repeats, lambda: pickle.loads(blob))
        cold_views: List[object] = []

        def mmap_load():
            view = load_ctg(ctg_path, mmap=True)
            cold_views.append(view)  # keep alive; closed after timing
            return view

        mmap_load_seconds = harness.best_of(repeats, mmap_load)

        # -- warm queries off the mmap: parity + paired latency ----------
        view = load_ctg(ctg_path, mmap=True)
        graphs = {"memory": flat, "mmap": view}
        seconds = {"memory": [], "mmap": []}
        bundles = {}
        for repeat in range(paired_repeats):
            arms = ("memory", "mmap") if repeat % 2 == 0 else ("mmap",
                                                                "memory")
            for arm in arms:
                started = time.perf_counter()
                bundles[arm] = _bundle(QuerySession(graphs[arm]), names,
                                       duration)
                seconds[arm].append(time.perf_counter() - started)
        penalties = [mapped / memory for mapped, memory
                     in zip(seconds["mmap"], seconds["memory"])]
        parity = (view.materialize() == flat
                  and bundles["mmap"] == bundles["memory"])
        view.close()
        for cold in cold_views:
            cold.close()

    return {
        "repeats": repeats,
        "workload": {
            "generator": "make_wide_instance",
            "width": WIDTH,
            "duration": duration,
            "nodes": flat.num_nodes,
            "edges": flat.num_edges,
        },
        "sizes": {
            "ctg_bytes": ctg_bytes,
            "pickle_bytes": pickle_bytes,
            "flat_estimate_bytes": flat.estimate_size_bytes(),
        },
        "write": {
            "pickle_seconds": pickle_write_seconds,
            "store_seconds": store_write_seconds,
            "speedup": pickle_write_seconds / store_write_seconds,
        },
        "cold_load": {
            "pickle_seconds": pickle_load_seconds,
            "mmap_seconds": mmap_load_seconds,
            "speedup": pickle_load_seconds / mmap_load_seconds,
        },
        "warm_queries": {
            "memory_seconds": min(seconds["memory"]),
            "mmap_seconds": min(seconds["mmap"]),
            "penalties": penalties,
            "mmap_query_penalty": statistics.median(penalties),
        },
        "parity": parity,
    }


def validate(record, problems):
    """The store record's schema and gates."""
    workload = record.get("workload")
    problems.expect(isinstance(workload, dict)
                    and all(isinstance(workload.get(key), int)
                            and workload[key] > 0
                            for key in ("width", "duration", "nodes",
                                        "edges")),
                    "workload must describe width/duration/nodes/edges")
    sizes = record.get("sizes")
    problems.expect(isinstance(sizes, dict)
                    and all(isinstance(sizes.get(key), int)
                            and sizes[key] > 0
                            for key in ("ctg_bytes", "pickle_bytes")),
                    "sizes must record positive ctg_bytes/pickle_bytes")
    problems.block(record, "write", ("pickle_seconds", "store_seconds",
                                     "speedup"))
    cold = problems.block(record, "cold_load", ("pickle_seconds",
                                                "mmap_seconds", "speedup"))
    warm = problems.block(record, "warm_queries", ("memory_seconds",
                                                   "mmap_seconds",
                                                   "mmap_query_penalty"))
    problems.expect(warm is None or (
        isinstance(warm.get("penalties"), list) and warm["penalties"]
        and all(isinstance(value, float) and value > 0.0
                for value in warm["penalties"])),
                    "warm_queries.penalties must list each repeat's "
                    "positive mmap-over-memory ratio")
    problems.expect(record.get("parity") is True,
                    "parity must be true: the mmap-served QuerySession "
                    "diverged from the in-memory answers")
    if record.get("smoke") is not False:
        return
    if cold is not None:
        problems.expect(cold["speedup"] >= COLD_LOAD_GATE,
                        f"cold mmap load must be >= {COLD_LOAD_GATE}x "
                        "faster than unpickling (measured "
                        f"{cold['speedup']:.2f}x)")


def summary(record):
    workload, sizes = record["workload"], record["sizes"]
    write, cold = record["write"], record["cold_load"]
    warm = record["warm_queries"]
    return (f"{workload['duration']} steps x {workload['width']} locations, "
            f"{workload['edges']} edges; "
            f".ctg {sizes['ctg_bytes']} B vs pickle {sizes['pickle_bytes']} "
            f"B; write {write['pickle_seconds'] * 1e3:.1f} -> "
            f"{write['store_seconds'] * 1e3:.1f} ms "
            f"({write['speedup']:.2f}x); cold load "
            f"{cold['pickle_seconds'] * 1e3:.1f} -> "
            f"{cold['mmap_seconds'] * 1e3:.2f} ms ({cold['speedup']:.2f}x); "
            f"warm bundle {warm['memory_seconds'] * 1e3:.1f} ms in memory, "
            f"{warm['mmap_seconds'] * 1e3:.1f} ms mapped (penalty, median "
            f"of {len(warm['penalties'])} paired repeats, "
            f"{warm['mmap_query_penalty']:.2f}x), parity ok")


if __name__ == "__main__":
    sys.exit(harness.main("store", SCHEMA_VERSION, run, validate, summary,
                          __doc__))
